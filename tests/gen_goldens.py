"""Regenerate the CLI golden files, or check them.  Run from anywhere once
genmi is installed, or from the repo root without installing:

    python tests/gen_goldens.py                  # every case
    PYTHONPATH=src python tests/gen_goldens.py   # the same, uninstalled
    python tests/gen_goldens.py NAME [NAME ...]  # only the named cases
    python tests/gen_goldens.py --check [NAME ...]

`--check` reruns the cases and writes nothing: it prints each golden file
that a regeneration would change (or create), and exits 1 if there is
one, 0 if every file would stay byte-identical.  Use it to show that a
change leaves the CLI output as it was.

Names are the first field of the entries in `cli_cases.CASES`, or the
trace case's name (`cap_trace`); an unknown name is an error and writes
nothing.  So is a case whose exit code is not the expected one.
"""

import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from cli_cases import CASES, HERE, TRACE_CASE, run_cli  # noqa: E402


def _run(name, argv, expected):
    proc = run_cli(argv)
    if proc.returncode != expected:
        raise SystemExit(
            f"{name}: exit {proc.returncode}, expected {expected}\n{proc.stderr.decode()}"
        )
    return proc


def produce(wanted):
    """{golden file name: bytes} for the wanted cases, from fresh runs."""
    files = {}
    for name, argv, expected in CASES:
        if name in wanted:
            files[f"{name}.out"] = _run(name, argv, expected).stdout
    name, argv, expected = TRACE_CASE
    if name in wanted:
        with tempfile.TemporaryDirectory() as tmp:
            trace = pathlib.Path(tmp) / "trace.tsv"
            files[f"{name}.out"] = _run(name, [*argv, "--trace", str(trace)], expected).stdout
            files[f"{name}.tsv"] = trace.read_bytes()
    return files


def main(args, golden=HERE / "golden"):
    """Write (or with --check, compare) the golden files in `golden`;
    returns the exit status."""
    check = "--check" in args
    names = [a for a in args if a != "--check"]
    known = [case[0] for case in CASES] + [TRACE_CASE[0]]
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}; known: {', '.join(known)}")
    files = produce(set(names or known))

    if check:
        changed = [f for f, data in files.items()
                   if not (golden / f).is_file() or (golden / f).read_bytes() != data]
        for f in changed:
            print(f"would change golden/{f}")
        print(f"{len(files)} golden file(s) checked, {len(changed)} would change")
        return 1 if changed else 0

    golden.mkdir(exist_ok=True)
    for f, data in files.items():
        (golden / f).write_bytes(data)
        print(f"wrote golden/{f} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
