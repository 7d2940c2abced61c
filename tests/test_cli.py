"""Golden-file reproducibility and behaviour of the command-line front end."""

import pytest

import gen_goldens
from cli_cases import CASES, HERE, TRACE_CASE, run_cli
from genmi.cli import _capacity_plan


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
