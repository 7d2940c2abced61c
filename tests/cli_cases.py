"""Shared table of CLI golden cases: (name, argv, expected exit code).

Every subcommand and every exit code appears at least once.  Stdout for
each case is frozen under golden/<name>.out; regenerate with
`python tests/gen_goldens.py [NAME ...]` after an intentional output change.

`run_cli` is the one way the tests start the CLI: `python -m genmi` in a
subprocess whose working directory is this folder, so the argv paths above
resolve against it.
"""

import os
import pathlib
import subprocess
import sys

import genmi

HERE = pathlib.Path(__file__).resolve().parent


def run_cli(argv):
    """Run `python -m genmi *argv` from this folder; return the CompletedProcess.

    A relative PYTHONPATH entry (the `src` of `PYTHONPATH=src python -m
    pytest`) would resolve against the child's working directory and point at
    nothing.  So the directory holding the genmi package this process
    imported goes first on the child's PYTHONPATH, for a source tree and an
    installed copy alike; existing entries are kept after it.
    """
    package_root = str(pathlib.Path(genmi.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "genmi", *argv],
        cwd=HERE, env=env, capture_output=True,
    )


CASES = [
    ("mi_shannon_bsc", ["mi", "fixtures/bsc10.chan", "--measure", "shannon"], 0),
    ("mi_arimoto_bsc", ["mi", "fixtures/bsc10.chan", "--measure", "arimoto", "--alpha", "2"], 0),
    ("mi_shannon_bits", ["mi", "fixtures/bsc10.chan", "--measure", "shannon", "--bits"], 0),
    ("mi_plain_uniform", ["mi", "fixtures/bsc10_plain.chan", "--measure", "shannon"], 0),
    ("mi_hayashi_prior_flag",
     ["mi", "fixtures/bsc10.chan", "--measure", "hayashi", "--alpha", "0.5",
      "--prior", "0.3,0.7"], 0),
    ("cap_shannon_bsc",
     ["capacity", "fixtures/bsc10.chan", "--measure", "shannon", "--eps", "1e-12"], 0),
    ("cap_arimoto_a1",
     ["capacity", "fixtures/asym22.chan", "--measure", "arimoto", "--alpha", "2",
      "--algorithm", "a1", "--eps", "1e-12"], 0),
    ("cap_arimoto_auto",
     ["capacity", "fixtures/asym22.chan", "--measure", "arimoto", "--alpha", "2",
      "--eps", "1e-12"], 0),
    ("cap_hayashi_numeric",
     ["capacity", "fixtures/asym22.chan", "--measure", "hayashi", "--alpha", "2"], 0),
    ("cap_fb_numeric",
     ["capacity", "fixtures/asym22.chan", "--measure", "fehr-berens", "--alpha", "2"], 0),
    ("cap_hayashi_forced_numeric",
     ["capacity", "fixtures/asym22.chan", "--measure", "hayashi", "--alpha", "0.5",
      "--algorithm", "numeric"], 0),
    ("leak_log", ["leakage", "fixtures/bsc10.chan", "--rule", "log"], 0),
    ("leak_alpha_score_mult",
     ["leakage", "fixtures/bsc10.chan", "--rule", "alpha-score", "--alpha", "2",
      "--multiplicative"], 0),
    ("leak_power_mult",
     ["leakage", "fixtures/bsc10.chan", "--rule", "power", "--alpha", "2",
      "--multiplicative"], 0),
    ("leak_gain_mult",
     ["leakage", "fixtures/bsc10.chan", "--gain-matrix", "fixtures/identity_gain.gmx",
      "--multiplicative"], 0),
    ("leak_log_loss", ["leakage", "fixtures/asym22.chan", "--rule", "log-loss"], 0),
    ("leak_alpha_loss_half",
     ["leakage", "fixtures/asym22.chan", "--rule", "alpha-loss", "--alpha", "0.5",
      "--prior", "0.3,0.7"], 0),
    ("leak_alpha_loss_2",
     ["leakage", "fixtures/asym22.chan", "--rule", "alpha-loss", "--alpha", "2"], 0),
    ("leak_loss_matrix",
     ["leakage", "fixtures/asym22.chan", "--gain-matrix", "fixtures/zero_one_loss.gmx",
      "--prior", "0.3,0.7"], 0),
    ("leak_loss_matrix_mult",
     ["leakage", "fixtures/bsc10.chan", "--gain-matrix", "fixtures/zero_one_loss.gmx",
      "--multiplicative"], 0),
    ("oracle_shannon_bsc",
     ["oracle", "fixtures/bsc10.chan", "--measure", "shannon", "--resolution", "0.001"], 0),
    ("oracle_arimoto",
     ["oracle", "fixtures/asym22.chan", "--measure", "arimoto", "--alpha", "2",
      "--resolution", "0.01"], 0),
    ("random_channel", ["random-channel", "--nx", "2", "--ny", "3", "--seed", "123456789"], 0),
    ("err_parse", ["mi", "fixtures/bad.chan", "--measure", "shannon"], 2),
    ("err_domain_alpha",
     ["mi", "fixtures/bsc10.chan", "--measure", "fehr-berens", "--alpha", "0.5"], 3),
    ("err_mixed_sign",
     ["leakage", "fixtures/bsc10.chan", "--gain-matrix", "fixtures/mixed_gain.gmx",
      "--multiplicative"], 3),
    ("err_nonconv",
     ["capacity", "fixtures/asym22.chan", "--measure", "shannon", "--eps", "1e-15",
      "--max-iter", "2"], 4),
]

TRACE_CASE = (
    "cap_trace",
    ["capacity", "fixtures/asym22.chan", "--measure", "shannon", "--eps", "1e-10"],
    0,
)
