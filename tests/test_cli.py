"""Golden-file reproducibility and behaviour of the command-line front end."""

import argparse
import ast
import re

import numpy as np
import pytest

import gen_goldens
from cli_cases import CASES, HERE, TRACE_CASE, run_cli
from genmi import Diverged, cli
from genmi.cli import _build_parser, _capacity_plan


@pytest.mark.parametrize("name,argv,expected", CASES, ids=[c[0] for c in CASES])
def test_golden_bytes(name, argv, expected):
    proc = run_cli(argv)
    assert proc.returncode == expected, proc.stderr.decode()
    golden = (HERE / "golden" / f"{name}.out").read_bytes()
    assert proc.stdout == golden
    if expected in (2, 3):
        assert b"error:" in proc.stderr


def test_trace_file_golden(tmp_path):
    name, argv, expected = TRACE_CASE
    trace = tmp_path / "trace.tsv"
    proc = run_cli([*argv, "--trace", str(trace)])
    assert proc.returncode == expected, proc.stderr.decode()
    assert proc.stdout == (HERE / "golden" / f"{name}.out").read_bytes()
    assert trace.read_bytes() == (HERE / "golden" / f"{name}.tsv").read_bytes()


def test_readme_trace_example_is_the_golden():
    # the README's --trace example is the start of the trace golden
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    header = "k\tF\tdeltaF\n"
    example = (header + readme.split(header, 1)[1].split("```", 1)[0]).splitlines()
    golden = (HERE / "golden" / f"{TRACE_CASE[0]}.tsv").read_text(encoding="utf-8").splitlines()
    assert len(example) >= 3
    assert example == golden[:len(example)]


def test_readme_python_example_gives_its_commented_values():
    # each expression of the quick start with a comment evaluates to the
    # value the comment ends with: digits truncated at "...", or an array
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines, env, checked = block.splitlines(), {}, 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
            continue
        got = eval(ast.unparse(stmt.value), env)
        want = lines[stmt.end_lineno - 1].split("#", 1)[1].split("= ")[-1].strip()
        if want.endswith("..."):
            digits = want[:-3]
            assert abs(got - float(digits)) < 10.0 ** -len(digits.split(".")[1])
        else:
            np.testing.assert_allclose(got, eval(want, {"array": np.array}), atol=1e-9)
        checked += 1
    assert checked == 3


def test_rerun_is_byte_identical():
    argv = ["capacity", "fixtures/asym22.chan", "--measure", "fehr-berens", "--alpha", "3"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_wall_clock_kept_off_stdout():
    proc = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "shannon"])
    assert b"elapsed_seconds" not in proc.stdout
    assert b"elapsed_seconds" in proc.stderr


def test_keyed_and_delimited_forms_agree():
    keyed = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "shannon"])
    plain = run_cli(["mi", "fixtures/bsc10_plain.chan", "--measure", "shannon"])
    # same numbers; only the echoed file name differs
    tail = lambda b: b.decode().split("result:")[1]
    assert tail(keyed.stdout) == tail(plain.stdout)


def test_auto_algorithm_choices_recorded():
    picks = {
        "shannon": b"algorithm: closed",
        "arimoto": b"algorithm: a2",
        "hayashi": b"algorithm: exact",
        "fehr-berens": b"algorithm: exact",
    }
    for measure, expected in picks.items():
        argv = ["capacity", "fixtures/asym22.chan", "--measure", measure]
        if measure != "shannon":
            argv += ["--alpha", "2"]
        proc = run_cli(argv)
        assert proc.returncode == 0, proc.stderr.decode()
        assert expected in proc.stdout


@pytest.mark.parametrize("measure,alpha", [
    ("shannon", None), ("arimoto", 0.5), ("hayashi", 0.5), ("fehr-berens", 3.0),
])
def test_numeric_algorithm_is_the_generic_functional(measure, alpha):
    # the numeric prior step is the generic kind's, on the measure's own pair
    spec, name = _capacity_plan(measure, alpha, "numeric")
    auto, _ = _capacity_plan(measure, alpha, "auto")
    assert (spec.kind, name) == ("generic", "numeric")
    assert spec.pair.row == auto.pair.row and spec.alpha == alpha


def test_algorithm_measure_mismatch_is_domain_error():
    proc = run_cli(["capacity", "fixtures/asym22.chan", "--measure", "shannon",
                    "--algorithm", "a1"])
    assert proc.returncode == 3
    proc = run_cli(["capacity", "fixtures/asym22.chan", "--measure", "hayashi",
                    "--alpha", "2", "--algorithm", "a2"])
    assert proc.returncode == 3


def test_alpha_validation():
    proc = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "shannon", "--alpha", "2"])
    assert proc.returncode == 3
    proc = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "arimoto"])
    assert proc.returncode == 3
    proc = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "arimoto", "--alpha", "1"])
    assert proc.returncode == 3


@pytest.mark.parametrize("argv", [
    ["--gain-matrix", "fixtures/identity_gain.gmx", "--alpha", "7"],
    ["--rule", "log", "--alpha", "2"],
    ["--rule", "power"],
], ids=["gain-matrix-with-alpha", "log-with-alpha", "power-without-alpha"])
def test_leakage_refuses_a_missing_or_an_extra_alpha(argv):
    # a missing order is refused, and so is one the source takes no part in,
    # rather than dropped without a word
    proc = run_cli(["leakage", "fixtures/bsc10.chan", *argv])
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"error: DomainError: --alpha is " in proc.stderr


@pytest.mark.parametrize("flag,value", [("--numeric-iters", "50"), ("--numeric-step", "0.25")])
def test_numeric_ascent_flags_are_usage_errors(flag, value):
    # the ascent's rounds and step size are fixed: a command line that
    # still sets them is refused, not run with the flag dropped
    proc = run_cli(["capacity", "fixtures/asym22.chan", "--measure", "hayashi", "--alpha", "2",
                    "--algorithm", "numeric", flag, value])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"unrecognized arguments: " + flag.encode() in proc.stderr


def test_arimoto_half_on_named_channel_converges(tmp_path):
    # random-channel 3x3 seed 1 at order 0.5 used to spend the whole
    # 10,000-iteration budget and exit 4
    chan = tmp_path / "r331.chan"
    chan.write_bytes(run_cli(["random-channel", "--nx", "3", "--ny", "3", "--seed", "1"]).stdout)
    proc = run_cli(["capacity", str(chan), "--measure", "arimoto", "--alpha", "0.5"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"converged: true" in proc.stdout


def test_oracle_value_that_is_not_finite_exits_3(tmp_path):
    # arimoto(1000) on random-channel 4x5 seed 3 used to print capacity: inf
    # and exit 0: its unscaled power sums underflow to 0
    chan = tmp_path / "r453.chan"
    chan.write_bytes(run_cli(["random-channel", "--nx", "4", "--ny", "5", "--seed", "3"]).stdout)
    proc = run_cli(["oracle", str(chan), "--measure", "arimoto", "--alpha", "1000",
                    "--resolution", "0.02"])
    assert proc.returncode == 3
    assert b"error: NonFinite: arimoto(1000): mutual information inf at grid point [" in proc.stderr
    assert b"capacity" not in proc.stdout


def test_alpha_score_leakage_at_a_high_order_exits_0(tmp_path):
    # the tilt of the uniform prior at order 400 used to underflow to 0
    # and exit 3 with NonFinite
    chan = tmp_path / "r881.chan"
    chan.write_bytes(run_cli(["random-channel", "--nx", "8", "--ny", "8", "--seed", "1"]).stdout)
    proc = run_cli(["leakage", str(chan), "--rule", "alpha-score", "--alpha", "400"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"additive: " in proc.stdout


def test_bad_prior_length_is_domain_error():
    proc = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "shannon",
                    "--prior", "0.2,0.3,0.5"])
    assert proc.returncode == 3


def test_unreadable_file_is_parse_error():
    proc = run_cli(["mi", "no_such_file.chan", "--measure", "shannon"])
    assert proc.returncode == 2


def test_random_channel_round_trips():
    emitted = run_cli(["random-channel", "--nx", "3", "--ny", "2", "--seed", "42"])
    assert emitted.returncode == 0
    path = HERE / "fixtures" / "_roundtrip.chan"
    try:
        path.write_bytes(emitted.stdout)
        proc = run_cli(["mi", "fixtures/_roundtrip.chan", "--measure", "shannon"])
        assert proc.returncode == 0
    finally:
        path.unlink(missing_ok=True)


def test_bits_flag_scales_by_log2():
    import math

    nats = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "shannon"])
    bits = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "shannon", "--bits"])

    def grab(out, key):
        for line in out.decode().splitlines():
            if line.strip().startswith(key + ":"):
                return float(line.split(":")[1])
        raise AssertionError(f"{key} not found")

    assert grab(bits.stdout, "mi") == pytest.approx(
        grab(nats.stdout, "mi") / math.log(2), abs=1e-9
    )
    assert b"units: bits" in bits.stdout


def test_one_input_channel_prints_zero_not_minus_zero(tmp_path):
    # every value is a zero with a sign bit here: -(0 log 0 + ...) and k log 1
    chan = tmp_path / "one.chan"
    chan.write_text("x 1\ny 2\nrow 0.2 0.8\n")
    for argv in (["mi", str(chan), "--measure", "shannon"],
                 ["capacity", str(chan), "--measure", "shannon"],
                 ["mi", str(chan), "--measure", "arimoto", "--alpha", "2"],
                 ["mi", str(chan), "--measure", "hayashi", "--alpha", "2"]):
        proc = run_cli(argv)
        assert proc.returncode == 0, proc.stderr.decode()
        result = proc.stdout.decode().split("result:\n")[1].split("version:")[0]
        values = [line.split(": ")[1] for line in result.splitlines()]
        assert "-0" not in values, (argv, result)
        key = "capacity" if argv[0] == "capacity" else "mi"
        assert f"  {key}: 0\n" in result, (argv, result)


def test_gen_goldens_check_writes_nothing_and_reports_a_change(tmp_path, capsys):
    names = ["random_channel", "err_parse"]
    golden = HERE / "golden"
    before = {f.name: f.read_bytes() for f in golden.iterdir()}
    assert gen_goldens.main(["--check", *names]) == 0
    assert {f.name: f.read_bytes() for f in golden.iterdir()} == before
    # a golden that differs, and one that is missing, would both change
    (tmp_path / "random_channel.out").write_bytes(before["random_channel.out"] + b"\n")
    capsys.readouterr()
    assert gen_goldens.main(["--check", *names], golden=tmp_path) == 1
    out = capsys.readouterr().out
    assert "would change golden/random_channel.out" in out
    assert "would change golden/err_parse.out" in out
    assert [f.name for f in tmp_path.iterdir()] == ["random_channel.out"]


def test_unwritable_trace_path_is_parse_error(tmp_path):
    trace = tmp_path / "no_such_dir" / "t.tsv"
    proc = run_cli(["capacity", "fixtures/asym22.chan", "--measure", "shannon",
                    "--trace", str(trace)])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert f"error: ParseError: cannot write {str(trace)!r}: ".encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


def _solve_must_not_run(*args):
    raise AssertionError("solve ran before the --trace path was checked")


def _solve_raises(*args):
    raise Diverged("the solve failed")


def test_unwritable_trace_path_fails_before_the_solve(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve", _solve_must_not_run)
    trace = tmp_path / "no_such_dir" / "t.tsv"
    code = cli.main(["capacity", str(HERE / "fixtures" / "asym22.chan"), "--measure", "shannon",
                     "--trace", str(trace)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert f"error: ParseError: cannot write {str(trace)!r}: " in out.err


@pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-file"])
def test_solve_that_raises_leaves_the_trace_path_as_it_was(tmp_path, monkeypatch, capsys, existing):
    monkeypatch.setattr(cli, "solve", _solve_raises)
    trace = tmp_path / "t.tsv"
    if existing:
        trace.write_text("k\tF\tdeltaF\n", encoding="utf-8")
    code = cli.main(["capacity", str(HERE / "fixtures" / "asym22.chan"), "--measure", "shannon",
                     "--trace", str(trace)])
    assert code == 3
    assert "error: Diverged: the solve failed" in capsys.readouterr().err
    if existing:
        assert trace.read_text(encoding="utf-8") == "k\tF\tdeltaF\n"
    else:
        assert not trace.exists()


@pytest.mark.parametrize("prior", [",", " ", ", ,"])
def test_prior_without_numbers_is_parse_error(prior):
    proc = run_cli(["mi", "fixtures/bsc10.chan", "--measure", "shannon", "--prior", prior])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert f"error: ParseError: --prior: expected numbers, got {prior!r}".encode() in proc.stderr


@pytest.mark.parametrize("argv", [
    ["mi", "{bad}", "--measure", "shannon"],
    ["leakage", "fixtures/bsc10.chan", "--gain-matrix", "{bad}"],
], ids=["channel", "gain-matrix"])
def test_undecodable_input_file_is_parse_error(tmp_path, argv):
    bad = tmp_path / "bin.chan"
    bad.write_bytes(b"\xff\xfe\x00bad")
    proc = run_cli([arg.format(bad=bad) for arg in argv])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert f"error: ParseError: cannot read {str(bad)!r}: not UTF-8".encode() in proc.stderr


def test_empty_random_channel_is_domain_error():
    proc = run_cli(["random-channel", "--nx", "0", "--ny", "3", "--seed", "1"])
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"error: DomainError: " in proc.stderr


MEASURES = ("shannon", "arimoto", "hayashi", "fehr-berens")
RULE_NAMES = ["alpha-loss", "alpha-score", "log", "log-loss", "power", "pseudo-spherical"]
STORE, FLAG = "_StoreAction", "_StoreTrueAction"

#: subcommand -> option strings (dest for a positional) -> (default, type,
#: choices, required, action class) of every argument
SURFACE = {
    "mi": {
        "channel": (None, None, None, True, STORE),
        ("--prior",): (None, None, None, False, STORE),
        ("--measure",): (None, None, MEASURES, True, STORE),
        ("--alpha",): (None, float, None, False, STORE),
        ("--bits",): (False, None, None, False, FLAG),
    },
    "capacity": {
        "channel": (None, None, None, True, STORE),
        ("--measure",): (None, None, MEASURES, True, STORE),
        ("--alpha",): (None, float, None, False, STORE),
        ("--eps",): (1e-10, float, None, False, STORE),
        ("--relative-eps",): (False, None, None, False, FLAG),
        ("--max-iter",): (10000, int, None, False, STORE),
        ("--algorithm",): ("auto", None, ("auto", "a1", "a2", "numeric"), False, STORE),
        ("--trace",): (None, None, None, False, STORE),
        ("--bits",): (False, None, None, False, FLAG),
    },
    "leakage": {
        "channel": (None, None, None, True, STORE),
        ("--prior",): (None, None, None, False, STORE),
        ("--rule",): (None, None, RULE_NAMES, False, STORE),
        ("--gain-matrix",): (None, None, None, False, STORE),
        ("--alpha",): (None, float, None, False, STORE),
        ("--multiplicative",): (False, None, None, False, FLAG),
    },
    "oracle": {
        "channel": (None, None, None, True, STORE),
        ("--measure",): (None, None, MEASURES, True, STORE),
        ("--alpha",): (None, float, None, False, STORE),
        ("--resolution",): (0.01, float, None, False, STORE),
        ("--bits",): (False, None, None, False, FLAG),
    },
    "random-channel": {
        ("--nx",): (None, int, None, True, STORE),
        ("--ny",): (None, int, None, True, STORE),
        ("--seed",): (None, int, None, True, STORE),
    },
}


def _subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_surface_is_pinned():
    subparsers = _subparsers()
    assert list(subparsers) == list(SURFACE)
    for name, sub in subparsers.items():
        got = {
            tuple(a.option_strings) or a.dest:
                (a.default, a.type, a.choices, a.required, type(a).__name__)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        }
        assert got == SURFACE[name], name
    # --rule and --gain-matrix: exactly one of them
    [group] = subparsers["leakage"]._mutually_exclusive_groups
    assert group.required
    assert [a.dest for a in group._group_actions] == ["rule", "gain_matrix"]


def test_readme_synopsis_names_every_flag():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = {}
    for line in block.splitlines():
        if line.startswith("genmi "):
            command = line.split()[1]
        named.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    flags = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in _subparsers().items()
    }
    assert named == flags
