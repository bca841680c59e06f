"""End-to-end command line checks.

Commands run in process through ``main`` so exit codes and outputs can be
asserted directly; only the console-script checks start a process of their
own.  The exponent sweep for the mod-2 adder with a 0.1 flip is pinned as a
golden CSV; every value in it was verified against the exhaustive
enumeration oracle when first frozen.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    adder_channel,
    binary_codebooks,
    identity_channel,
    mixed_pair,
    uniform_law,
    xor_bsc,
)
import macexp
from macexp import cli, lattice, typeclasses
from macexp.cli import build_parser, main
from macexp.fileio import (
    channel_to_dict,
    codebook_to_dict,
    law_to_dict,
    load_codebook,
    save_json,
)

GOLDEN_SWEEP = """\
rx,ry,value,branch,source,baseline_value,baseline_branch
0.4,0.4,inf,X,lattice,0.0,XY
0.4,0.7,0.30000000000000004,Y,anchor_diag,0.0,Y
0.4,1.0,0.0,Y,anchor_diag,0.0,Y
0.7,0.4,0.30000000000000004,X,anchor_diag,0.0,X
0.7,0.7,0.30000000000000004,X,anchor_diag,0.0,X
0.7,1.0,0.0,Y,anchor_diag,0.0,X
1.0,0.4,0.0,X,anchor_diag,0.0,X
1.0,0.7,0.0,X,anchor_diag,0.0,X
1.0,1.0,0.0,X,anchor_diag,0.0,X
"""

# Exit code and SHA-256 of stdout and of each output file of codebook
# commands on the 8x8 binary books, the |U| = 2, ternary-X books of
# ``mixed_pair`` and 24x24 binary books at n = 12, whose reports show a
# last-bit change in any need.  Recorded from the dict-of-dicts tally; every
# later tally must reproduce them byte for byte.
GOLDEN_CODEBOOK = {
    ("books.json", "verify-packing", "0.05"): (3, {
        "stdout": "b9c845fdeadeacde786a2b37c46ce75e850aa2ea5567f67cf84969568d54677e",
        "--out": "b3915a79681e317faef313e3f6ba2dfbf9ef95dc41c7d2422f65b7e4b6a266d8"}),
    ("books.json", "expurgate", "0.0"): (3, {
        "stdout": "fba8119f1d24607566851ebc6414ae10d16b98309236617b782990e5f1b3c3f9",
        "--out": "b2eeec6d6662acb8159c5699c7575c6d13cf192cbeb3d20a15cab667dfdd2e3d",
        "--report": "5be1d97c8315af642cfcd4a4c410546944dd0b5a59a70078350b7528a1376431"}),
    ("books.json", "expurgate", "0.1"): (0, {
        "stdout": "e79bbcbe11012bbfedf43630211749860e5c21bcb39ce9e49d8905768a104de0",
        "--out": "b2eeec6d6662acb8159c5699c7575c6d13cf192cbeb3d20a15cab667dfdd2e3d",
        "--report": "6839444af326f5a850df726d46f145bb1939839782b19d54995e3c1e0d1338a7"}),
    ("mixed.json", "verify-packing", "0.05"): (3, {
        "stdout": "93c98c651e47c9ed539d4efb59c6819357274100f88399c31180e93c07362cfa",
        "--out": "dccbe285bab6bf109682c796a2dafe34f09ab8e857d0b86b30550cfbd3652646"}),
    ("mixed.json", "expurgate", "0.1"): (3, {
        "stdout": "22a88ee3cfd42d8cd3c0f9da13798f056c8f02da421882c1d5bbf2e2b00a5fcc",
        "--out": "7b73eee0f819f4931d8b06810cc77c95618542d68fdc691676e1f926f55839c4",
        "--report": "74edcd23006c8f8dc4f29618d8e0bb2ca852b612a50c57b282b95a68392cb569"}),
    ("mixed.json", "expurgate", "1.0"): (0, {
        "stdout": "f7f8aaaed0dc336b0cc723e520c2794eb38dba354558128c6e226defc90065f8",
        "--out": "1c41540fa3744479c9e8ccd4c27761f43c635ac154851e888687b8f08a8c36e1",
        "--report": "d19682d432bbbb0622363edf0ab459c76c642f6d9b399a95bceeffaec6a68cf8"}),
    ("big.json", "verify-packing", "0.05"): (3, {
        "stdout": "896d789e185902026d79aa8b7582f1badf47315786b840ca394eb33579bb6fae",
        "--out": "1f4e6a24bf085b01249cecf2ed11116df59cfe8f6b1d91706bf7c9472d784d74"}),
    ("big.json", "expurgate", "0.1"): (0, {
        "stdout": "a6bba4da591c9759e6f6fb2855c9e4efdc447de31879881b351f8f1192c9e8e6",
        "--out": "372584eb71529e3d1e9c12a2ab079a3c540cf60a8575b457220696e6706e37da",
        "--report": "4967fcb5c85636499422d14cc75da6a0ee8a4ab7b60c16bc3143c34de363257c"}),
}

SIM_CSV = ("n,m_x,m_y,rate_x,rate_y,trials,error,stderr\n"
           "6,2,2,0.16666666666666666,0.16666666666666666,0,0.0,0.0\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    save_json(d / "chan.json", channel_to_dict(xor_bsc(0.1)))
    save_json(d / "law.json", law_to_dict(uniform_law()))
    save_json(d / "adder.json", channel_to_dict(adder_channel()))
    save_json(d / "iden.json", channel_to_dict(identity_channel()))
    save_json(d / "books.json",
              codebook_to_dict(binary_codebooks(8, 8, 8, seed=20240817)))
    save_json(d / "clean.json",
              codebook_to_dict(binary_codebooks(6, 2, 2, seed=0)))
    save_json(d / "mixed.json", codebook_to_dict(mixed_pair()))
    save_json(d / "big.json",
              codebook_to_dict(binary_codebooks(12, 24, 24, seed=20240817)))
    return d


def sweep_args(d, csv=None, out=None, extra=()):
    argv = ["exponent", "--channel", str(d / "chan.json"),
            "--law", str(d / "law.json"), "--rx", "0.4,0.7,1.0",
            "--ry", "0.4,0.7,1.0", "--denominator", "4", "--baseline"]
    if csv:
        argv += ["--csv", str(csv)]
    if out:
        argv += ["--out", str(out)]
    return argv + list(extra)


class TestExponentCommand:
    def test_sweep_matches_the_pinned_golden(self, workdir):
        csv = workdir / "sweep.csv"
        out = workdir / "sweep.json"
        assert main(sweep_args(workdir, csv=csv, out=out)) == 0
        assert csv.read_text() == GOLDEN_SWEEP
        doc = json.loads(out.read_text())
        assert doc["kind"] == "exponent_sweep"
        assert len(doc["results"]) == 9
        first = doc["results"][0]
        assert first["value"] == float("inf")
        assert first["feasible_empty"] is True
        assert set(doc["manifest"]) == {"command", "config", "config_sha256",
                                        "package_version"}

    def test_high_rate_pair_is_exactly_zero(self, workdir, capsys):
        csv = workdir / "high.csv"
        argv = ["exponent", "--channel", str(workdir / "chan.json"),
                "--law", str(workdir / "law.json"), "--rx", "2.0",
                "--ry", "2.0", "--denominator", "4", "--csv", str(csv)]
        assert main(argv) == 0
        line = csv.read_text().splitlines()[1]
        assert line.split(",")[2] == "0.0"
        assert "exponent=0 " in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, workdir):
        pair_a = (workdir / "a.csv", workdir / "a.json")
        pair_b = (workdir / "b.csv", workdir / "b.json")
        argv = ["exponent", "--channel", str(workdir / "chan.json"),
                "--law", str(workdir / "law.json"), "--rx", "0.4,0.7",
                "--ry", "0.4", "--denominator", "4"]
        assert main(argv + ["--csv", str(pair_a[0]), "--out", str(pair_a[1])]) == 0
        assert main(argv + ["--csv", str(pair_b[0]), "--out", str(pair_b[1])]) == 0
        assert pair_a[0].read_bytes() == pair_b[0].read_bytes()
        assert pair_a[1].read_bytes() == pair_b[1].read_bytes()

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_two(self, workdir, capsys, delta):
        csv = workdir / f"delta_{delta}.csv"
        assert main(sweep_args(workdir, csv=csv, extra=["--delta", delta])) == 2
        captured = capsys.readouterr()
        assert "delta must be finite" in captured.err
        assert "exponent=" not in captured.out
        assert not csv.exists()

    @pytest.mark.parametrize("denominator", ["4", "13", "300"])
    @pytest.mark.parametrize("branch", ["all", "X"])
    def test_negative_delta_exits_two_before_any_lattice_is_planned(
            self, workdir, capsys, monkeypatch, branch, denominator):
        # at d = 13 branch XY's lattice is over budget and at d = 300 every
        # lattice is refused (exit 3); the slack is refused before either
        plans = []
        monkeypatch.setattr(lattice._PinnedPlan, "__init__",
                            lambda self, *args: plans.append(args))
        csv = workdir / f"neg_delta_{branch}_{denominator}.csv"
        assert main(sweep_args(workdir, csv=csv, extra=[
            "--branch", branch, "--denominator", denominator,
            "--delta", "-1"])) == 2
        captured = capsys.readouterr()
        assert "delta must be finite and >= 0, got -1.0" in captured.err
        assert "exponent=" not in captured.out
        assert not csv.exists()
        assert plans == []


class TestVerifyPackingCommand:
    def test_generous_delta_passes(self, workdir, capsys):
        argv = ["verify-packing", "--codebook", str(workdir / "books.json"),
                "--delta", "1.0", "--out", str(workdir / "verify.json")]
        assert main(argv) == 0
        assert "packing satisfied" in capsys.readouterr().out
        doc = json.loads((workdir / "verify.json").read_text())
        assert doc["satisfied"] is True
        assert set(doc["average_need_delta"]) == {"pair", "triple_x",
                                                  "triple_y", "quad"}

    def test_strict_delta_fails_with_exit_three(self, workdir, capsys):
        argv = ["verify-packing", "--codebook", str(workdir / "books.json"),
                "--delta", "0.0"]
        assert main(argv) == 3
        assert "NOT satisfied" in capsys.readouterr().out

    def test_nan_delta_exits_two(self, workdir, capsys):
        argv = ["verify-packing", "--codebook", str(workdir / "books.json"),
                "--delta", "nan"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "delta must be finite" in captured.err
        assert "satisfied" not in captured.out

    def test_single_user_need_is_printed(self, tmp_path, capsys):
        # every pair-family need of these books is below 0.2, the
        # single-user need of a book is not, and it alone fails the check
        save_json(tmp_path / "books.json",
                  codebook_to_dict(binary_codebooks(6, 4, 1, seed=3)))
        argv = ["verify-packing", "--codebook", str(tmp_path / "books.json"),
                "--delta", "0.2"]
        assert main(argv) == 3
        needs = {}
        for line in capsys.readouterr().out.splitlines():
            if ": need delta " in line:
                name, value = line.split(": need delta ")
                needs[name] = float(value)
        single = {k: v for k, v in needs.items() if k.startswith("single-user")}
        assert set(single) == {f"single-user {b} {k}" for b in "xy"
                               for k in ("avg", "per_word")}
        assert max(single.values()) > 0.2
        assert max(v for k, v in needs.items() if k not in single) <= 0.2

    # a missing file and a law file are refused before any tally
    @pytest.mark.parametrize("channel", ["missing.json", "law.json"])
    def test_unreadable_channel_exits_two(self, workdir, capsys, monkeypatch,
                                          channel):
        def no_tally(pair):
            raise AssertionError("tallied before the channel was read")
        monkeypatch.setattr(cli, "packing_reports", no_tally)
        out = workdir / f"verify_{channel}"
        argv = ["verify-packing", "--codebook", str(workdir / "books.json"),
                "--delta", "1.0", "--channel", str(workdir / channel),
                "--out", str(out)]
        assert main(argv) == 2
        assert "need delta" not in capsys.readouterr().out
        assert not out.exists()

    def test_channel_of_other_alphabets_exits_two(self, workdir, capsys):
        # ternary X books against the binary-input chan.json, refused alike
        # by verify-packing and by simulate
        out = workdir / "mismatch_mixed.json"
        for argv, done in ((["verify-packing", "--delta", "1.0"], "need delta"),
                           (["simulate", "--exact"], "error probability")):
            argv += ["--codebook", str(workdir / "mixed.json"),
                     "--channel", str(workdir / "chan.json"), "--out", str(out)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == ("macexp: channel input alphabets 2x2 do "
                                    "not match the books' 3x2\n")
            assert done not in captured.out
            assert not out.exists()

    def test_rerun_is_byte_identical(self, workdir):
        a = workdir / "verify_a.json"
        b = workdir / "verify_b.json"
        argv = ["verify-packing", "--codebook", str(workdir / "books.json"),
                "--delta", "1.0", "--channel", str(workdir / "chan.json")]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCodebookGoldens:
    @pytest.mark.parametrize("case", list(GOLDEN_CODEBOOK))
    def test_outputs_match_the_recorded_bytes(self, workdir, capsys, case):
        book, command, delta = case
        want_exit, want = GOLDEN_CODEBOOK[case]
        argv = [command, "--codebook", str(workdir / book), "--delta", delta]
        paths = {flag: workdir / f"golden{flag[1:]}.json"
                 for flag in want if flag != "stdout"}
        for flag, path in paths.items():
            argv += [flag, str(path)]
        capsys.readouterr()
        assert main(argv) == want_exit
        got = {flag: path.read_bytes() for flag, path in paths.items()}
        got["stdout"] = capsys.readouterr().out.encode()
        assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == want


class TestExpurgateCommand:
    def test_audit_clean_at_reachable_target(self, workdir, capsys):
        out = workdir / "expurgated.json"
        rep = workdir / "exp_report.json"
        argv = ["expurgate", "--codebook", str(workdir / "books.json"),
                "--delta", "0.1", "--out", str(out), "--report", str(rep)]
        assert main(argv) == 0
        assert "audit clean" in capsys.readouterr().out
        final = load_codebook(out)
        assert (final.m_x, final.m_y) == (8, 1)
        doc = json.loads(rep.read_text())
        assert doc["audit_ok"] is True
        assert doc["expurgated_book"] == "Y"
        assert len(doc["stages"]) == 4
        assert doc["product_ok"] is True
        assert max(doc["achieved_delta"].values()) <= 0.1

    def test_unreachable_target_exits_three(self, workdir, capsys):
        argv = ["expurgate", "--codebook", str(workdir / "books.json"),
                "--delta", "0.0", "--out", str(workdir / "exp_zero.json")]
        assert main(argv) == 3
        assert "audit FAILED" in capsys.readouterr().out

    def test_nan_delta_exits_two(self, workdir, capsys):
        out = workdir / "exp_nan.json"
        argv = ["expurgate", "--codebook", str(workdir / "books.json"),
                "--delta", "nan", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "delta must be finite" in captured.err
        assert "audit" not in captured.out
        assert not out.exists()

    def test_rerun_is_byte_identical(self, workdir):
        outs = [(workdir / f"exp_{t}.json", workdir / f"rep_{t}.json")
                for t in "ab"]
        for out, rep in outs:
            argv = ["expurgate", "--codebook", str(workdir / "books.json"),
                    "--delta", "0.1", "--out", str(out), "--report", str(rep)]
            assert main(argv) == 0
        assert outs[0][0].read_bytes() == outs[1][0].read_bytes()
        assert outs[0][1].read_bytes() == outs[1][1].read_bytes()


class TestSimulateCommand:
    def test_exact_identity_run_writes_the_csv(self, workdir, capsys):
        csv = workdir / "sim.csv"
        argv = ["simulate", "--codebook", str(workdir / "clean.json"),
                "--channel", str(workdir / "iden.json"), "--exact",
                "--csv", str(csv)]
        assert main(argv) == 0
        assert "exact error probability 0" in capsys.readouterr().out
        assert csv.read_text() == SIM_CSV

    def test_monte_carlo_requires_a_seed(self, workdir):
        argv = ["simulate", "--codebook", str(workdir / "clean.json"),
                "--channel", str(workdir / "iden.json")]
        assert main(argv) == 2

    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_bad_enumeration_guard_exits_two(self, workdir, capsys, guard):
        out = workdir / "sim_guard.json"
        argv = ["simulate", "--codebook", str(workdir / "clean.json"),
                "--channel", str(workdir / "chan.json"), "--exact",
                "--max-outputs", guard, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "macexp: max_outputs must be >= 1\n"
        assert "error probability" not in captured.out
        assert not out.exists()

    def test_channel_row_off_one_exits_two(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "chan.json").read_text())
        doc["rows"][0] = [0.85, 0.05]
        save_json(tmp_path / "chan.json", doc)
        out = tmp_path / "sim.json"
        argv = ["simulate", "--codebook", str(workdir / "clean.json"),
                "--channel", str(tmp_path / "chan.json"), "--exact",
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("macexp: Channel: row (x=0, y=0) sums to "
                                "0.9, not 1\n")
        assert captured.out == ""
        assert not out.exists()

    def test_negative_seed_exits_two(self, workdir, capsys):
        argv = ["simulate", "--codebook", str(workdir / "clean.json"),
                "--channel", str(workdir / "chan.json"), "--seed", "-1"]
        assert main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    # simulate takes no exponent to echo: a typed exponent is no bound
    @pytest.mark.parametrize("flags", [
        ["--exponent", "0.2"], ["--delta", "0.1"], ["--branch", "X"]])
    def test_removed_bound_options_are_refused(self, workdir, capsys, flags):
        csv, out = workdir / "sim_bad.csv", workdir / "sim_bad.json"
        argv = ["simulate", "--codebook", str(workdir / "clean.json"),
                "--channel", str(workdir / "chan.json"), "--trials", "200",
                "--seed", "5", "--csv", str(csv), "--out", str(out)] + flags
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
        assert "error probability" not in captured.out
        assert not csv.exists() and not out.exists()

    def test_monte_carlo_rerun_is_byte_identical(self, workdir):
        outs = [workdir / "mc_a.json", workdir / "mc_b.json"]
        for out in outs:
            argv = ["simulate", "--codebook", str(workdir / "clean.json"),
                    "--channel", str(workdir / "chan.json"), "--trials",
                    "2000", "--seed", "5", "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = json.loads(outs[0].read_text())
        assert doc["method"] == "mc" and doc["trials"] == 2000


class TestRegionCommand:
    def test_inside_point_reports_the_pentagon(self, workdir, capsys):
        out = workdir / "witness.json"
        argv = ["region", "--channel", str(workdir / "adder.json"),
                "--rx", "0.7", "--ry", "0.7", "--out", str(out)]
        assert main(argv) == 0
        assert "i_x=1 i_y=1 i_xy=1.5" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["found"] is True
        assert doc["pentagon"] == {"i_x": 1.0, "i_y": 1.0, "i_xy": 1.5}
        assert doc["input_law"]["kind"] == "input_law"

    def test_outside_point_exits_three(self, workdir, capsys):
        argv = ["region", "--channel", str(workdir / "adder.json"),
                "--rx", "2.0", "--ry", "2.0"]
        assert main(argv) == 3
        assert "no witness" in capsys.readouterr().out

    def test_nan_delta_exits_two(self, workdir, capsys):
        out = workdir / "exp_nan.json"
        argv = ["expurgate", "--codebook", str(workdir / "books.json"),
                "--delta", "nan", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "delta must be finite" in captured.err
        assert "audit" not in captured.out
        assert not out.exists()

    def test_rerun_is_byte_identical(self, workdir):
        outs = [workdir / "wit_a.json", workdir / "wit_b.json"]
        for out in outs:
            argv = ["region", "--channel", str(workdir / "adder.json"),
                    "--rx", "0.7", "--ry", "0.7", "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


# An input document, the path to one of its entries, a value
# that breaks it, and the one line ``main`` prints to stderr for it
MALFORMED = [
    ("chan.json", ("x_size",), "two", "channel field 'x_size' must be a number"),
    ("chan.json", ("x_size",), 2.5,
     "channel field 'x_size' must hold whole numbers"),
    ("chan.json", ("rows", 1, 0), "a",
     "channel field 'rows' must be a 2-D array of numbers"),
    ("law.json", ("p_u",), "abc",
     "input_law field 'p_u' must be a 1-D array of numbers"),
    ("law.json", ("p_x_given_u",), [[0.5, 0.5], [1.0]],
     "input_law field 'p_x_given_u' must be a 2-D array of numbers"),
    ("books.json", ("n",), "four", "codebook_pair field 'n' must be a number"),
    ("books.json", ("cx", 1), [0, 1],
     "codebook_pair field 'cx' must be a 2-D array of numbers"),
    ("books.json", ("u",), None,
     "codebook_pair field 'u' must be a 1-D array of numbers"),
    ("books.json", ("cx", 0, 3), 1.5,
     "codebook_pair field 'cx' must hold whole numbers"),
]


def reader_argv(workdir, source, path, out):
    """A command that reads ``path`` in place of ``workdir / source`` and
    writes ``out``."""
    if source == "books.json":
        return ["verify-packing", "--codebook", str(path), "--delta", "1.0",
                "--out", str(out)]
    inputs = {"chan.json": workdir / "chan.json", "law.json": workdir / "law.json"}
    inputs[source] = path
    return ["exponent", "--channel", str(inputs["chan.json"]),
            "--law", str(inputs["law.json"]), "--rx", "0.4", "--ry", "0.4",
            "--csv", str(out)]


class TestErrorHandling:
    @pytest.mark.parametrize("source, path, value, message", MALFORMED)
    def test_malformed_field_exits_two(self, workdir, tmp_path, capsys,
                                       source, path, value, message):
        doc = json.loads((workdir / source).read_text())
        entry = doc
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        save_json(tmp_path / source, doc)
        out = tmp_path / "out"
        assert main(reader_argv(workdir, source, tmp_path / source, out)) == 2
        assert capsys.readouterr().err == f"macexp: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["chan.json", "law.json", "books.json"])
    def test_directory_as_input_exits_two(self, workdir, tmp_path, capsys,
                                          source):
        out = tmp_path / "out"
        assert main(reader_argv(workdir, source, tmp_path, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("macexp: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["exponent", "region"])
    def test_infinite_rate_exits_two(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "exponent":
            argv = sweep_args(workdir, csv=out)
            argv[argv.index("--rx") + 1] = "0.4,inf"
        else:
            argv = ["region", "--channel", str(workdir / "adder.json"),
                    "--rx", "inf", "--ry", "0.3", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "rates must be finite and >= 0" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_missing_file_exits_two(self, workdir):
        argv = ["region", "--channel", str(workdir / "nope.json"),
                "--rx", "0.1", "--ry", "0.1"]
        assert main(argv) == 2

    def test_invalid_json_exits_two(self, workdir):
        bad = workdir / "broken.json"
        bad.write_text("{broken")
        argv = ["region", "--channel", str(bad), "--rx", "0.1", "--ry", "0.1"]
        assert main(argv) == 2

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "binary.json"
        bad.write_bytes(b"\xff\xfe\x00")
        argv = ["region", "--channel", str(bad), "--rx", "0.1", "--ry", "0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("macexp: invalid JSON: ")

    def test_wrong_document_kind_exits_two(self, workdir):
        argv = ["region", "--channel", str(workdir / "law.json"),
                "--rx", "0.1", "--ry", "0.1"]
        assert main(argv) == 2

    def test_invalid_denominator_exits_two(self, workdir):
        argv = ["exponent", "--channel", str(workdir / "chan.json"),
                "--law", str(workdir / "law.json"), "--rx", "0.4",
                "--ry", "0.4", "--denominator", "1"]
        assert main(argv) == 2

    def test_scale_guard_refusal_exits_three(self, workdir):
        argv = ["exponent", "--channel", str(workdir / "chan.json"),
                "--law", str(workdir / "law.json"), "--rx", "0.4",
                "--ry", "0.4", "--denominator", "13", "--branch", "XY"]
        assert main(argv) == 3
        # every branch is checked before the X and Y lattices are built
        lattice.clear_lattice_cache()
        argv[-1] = "all"
        assert main(argv) == 3
        assert not [key for key in lattice._CACHE if key[2] == 13]
        # lattice rows store counts as uint8
        argv[-3:] = ["256", "--branch", "X"]
        assert main(argv) == 3
        argv = ["simulate", "--codebook", str(workdir / "books.json"),
                "--channel", str(workdir / "iden.json"), "--exact",
                "--max-outputs", "100"]
        assert main(argv) == 3

    def test_region_grid_over_the_enumeration_budget_exits_three(
            self, workdir, capsys, monkeypatch):
        # the adder's binary simplex at --u-grid 8 has 9 rows x 2 cells
        monkeypatch.setattr(typeclasses, "ENUM_BYTES", 17)
        out = workdir / "refused_region.json"
        argv = ["region", "--channel", str(workdir / "adder.json"),
                "--rx", "0.7", "--ry", "0.7", "--out", str(out)]
        assert main(argv) == 3
        assert "18 bytes, over the 17-byte" in capsys.readouterr().err
        assert not out.exists()

    def test_pinned_lattice_byte_guard_exits_three(self, workdir, capsys):
        # branch XY at d = 12 has 22,901,128 pinned types, refused by bytes
        argv = ["exponent", "--channel", str(workdir / "chan.json"),
                "--law", str(workdir / "law.json"), "--rx", "0.4",
                "--ry", "0.4", "--denominator", "12", "--branch", "XY"]
        assert main(argv) == 3
        assert "lattice budget" in capsys.readouterr().err


def test_readme_names_every_option_of_the_parser():
    # each subcommand's "### <name>" part of "## Command line" names every
    # option of that subcommand and no other, so a deleted option cannot
    # linger in its prose even where another subcommand still has it
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Command line\n"):]
    section = section[:section.index("\n## ", 1)]
    intro, *parts = re.split(r"\n### (\S+)\n", section)
    named = {name: set(re.findall(r"--[a-z][a-z-]*", part))
             for name, part in zip(parts[::2], parts[1::2])}
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {name: {flag for flag in sub._option_string_actions
                      if flag.startswith("--") and flag != "--help"}
               for name, sub in commands.choices.items()}
    assert not re.findall(r"--[a-z][a-z-]*", intro)
    assert named == options


def test_readme_library_map_names_every_export():
    # each export of macexp.__all__ appears, in backquotes, in the row of
    # the module that defines it
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Library map\n"):]
    section = section[:section.index("\n## ", 1)]
    rows = dict(re.findall(r"^\| `(macexp\.\w+)` \| (.*) \|$", section,
                           re.MULTILINE))
    missing = [name for name in macexp.__all__
               if f"`{name}`" not in rows.get(getattr(macexp, name).__module__,
                                              "")]
    assert missing == []


class TestColdProcess:
    # numpy imports numpy.ma on first use of some functions, which costs a
    # fresh process 15-25 ms; no command needs it
    @pytest.mark.parametrize("argv", [
        ["exponent", "--channel", "chan.json", "--law", "law.json",
         "--rx", "0.5", "--ry", "0.2", "--denominator", "6", "--baseline"],
        ["verify-packing", "--codebook", "big.json", "--delta", "0.05"]],
        ids=["exponent", "verify-packing"])
    def test_commands_leave_numpy_ma_unimported(self, workdir, argv):
        code = ("import sys; from macexp.cli import main; "
                "code = main(sys.argv[1:]); "
                "print('numpy.ma' in sys.modules, code)")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(macexp.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code] + argv,
                              capture_output=True, text=True, cwd=workdir,
                              env=env)
        assert proc.stdout.splitlines()[-1] in ("False 0", "False 3"), proc.stderr


SUBCOMMANDS = ("exponent", "verify-packing", "expurgate", "simulate", "region")


class TestInstalledScript:
    def test_console_script_answers_help(self, tmp_path):
        """The declared ``macexp`` entry point answers ``--help`` in its own
        process, called the way a console-script wrapper calls it.

        The entry point is read from ``pyproject.toml`` and the child runs the
        same ``macexp`` source as this process, so the check holds whether or
        not the package is installed.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, attr = scripts["macexp"].split(":")
        code = f"import sys; from {module} import {attr} as m; sys.exit(m())"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(macexp.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, "--help"],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        for name in SUBCOMMANDS:
            listed = rf"^\s+{re.escape(name)}\s"
            assert re.search(listed, proc.stdout, re.M), name

    @pytest.mark.skipif(shutil.which("macexp") is None,
                        reason="no installed macexp script on PATH")
    def test_installed_script_answers_help(self):
        exe = shutil.which("macexp")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "exponent" in proc.stdout
