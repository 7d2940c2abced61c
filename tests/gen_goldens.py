"""Regenerate the CLI golden files.  Run from anywhere once genmi is
installed, or from the repo root without installing:

    python tests/gen_goldens.py                  # every case
    PYTHONPATH=src python tests/gen_goldens.py   # the same, uninstalled
    python tests/gen_goldens.py NAME [NAME ...]  # only the named cases

Names are the first field of the entries in `cli_cases.CASES`, or the
trace case's name (`cap_trace`); an unknown name is an error and writes
nothing.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from cli_cases import CASES, HERE, TRACE_CASE, run_cli  # noqa: E402


def main(names):
    known = [case[0] for case in CASES] + [TRACE_CASE[0]]
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}; known: {', '.join(known)}")
    wanted = set(names or known)

    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    for name, argv, expected in CASES:
        if name not in wanted:
            continue
        proc = run_cli(argv)
        if proc.returncode != expected:
            raise SystemExit(
                f"{name}: exit {proc.returncode}, expected {expected}\n{proc.stderr.decode()}"
            )
        (golden / f"{name}.out").write_bytes(proc.stdout)
        print(f"wrote golden/{name}.out ({len(proc.stdout)} bytes)")

    name, argv, expected = TRACE_CASE
    if name not in wanted:
        return
    trace_path = golden / "_tmp_trace.tsv"
    proc = run_cli([*argv, "--trace", str(trace_path)])
    if proc.returncode != expected:
        raise SystemExit(f"{name}: exit {proc.returncode}, expected {expected}")
    (golden / f"{name}.out").write_bytes(proc.stdout)
    (golden / f"{name}.tsv").write_bytes(trace_path.read_bytes())
    trace_path.unlink()
    print(f"wrote golden/{name}.out and golden/{name}.tsv")


if __name__ == "__main__":
    main(sys.argv[1:])
