import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dyadnet.nets import format_generator_file, sobol_generators
from dyadnet.verify import IdentityResult


def run_ok(cli, args) -> str:
    """The stdout text of a command that must succeed and write nothing to
    stderr."""
    result = cli(args)
    assert (result.code, result.stderr) == (0, ""), result.stderr
    return result.stdout.decode()


def data_rows(output: str) -> list[str]:
    lines = [l for l in output.splitlines() if l and not l.startswith("#")]
    return lines[1:]  # drop the column header


class TestGen:
    def test_row_count(self, cli):
        out = run_ok(cli, ["gen", "--net", "van-der-corput", "--s", "4"])
        assert len(data_rows(out)) == 16

    def test_rescaled_count(self, cli):
        out = run_ok(cli, ["gen", "--net", "sobol", "--n", "3", "--s", "8",
                           "--count", "200"])
        assert len(data_rows(out)) == 200

    def test_deterministic_rerun(self, cli, tmp_path):
        args = ["gen", "--net", "sobol", "--n", "2", "--s", "5",
                "--shift-seed", "9"]
        a = run_ok(cli, args + ["--out", str(tmp_path / "a.csv")])
        b = run_ok(cli, args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_exact_format(self, cli):
        out = run_ok(cli, ["gen", "--net", "van-der-corput", "--s", "3", "--exact"])
        rows = data_rows(out)
        assert all("/2^3" in cell for row in rows for cell in row.split(","))
        assert "# mode: exact" in out

    def test_provenance_header(self, cli):
        out = run_ok(cli, ["gen", "--net", "van-der-corput", "--s", "2"])
        assert out.startswith("# dyadnet ")
        assert "# command: gen" in out
        assert "# config: " in out

    def test_missing_s_is_input_error(self, cli):
        result = cli(["gen", "--net", "van-der-corput"])
        assert result.code == 2

    def test_malformed_matrix_file(self, cli, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3\n\n101\n01\n001\n\n111\n010\n001\n")
        result = cli(["gen", "--net", f"file:{bad}", "--s", "3"])
        assert result.code == 2
        assert "line" in result.stderr

    def test_retries_never_repeat_a_shift(self, cli, monkeypatch):
        import dyadnet.nets as nets_mod

        real = nets_mod._rescale_once
        tried = []

        def spy(gen, count, shift):
            tried.append(shift.seed)
            return real(gen, count, shift)

        monkeypatch.setattr(nets_mod, "_rescale_once", spy)
        # Shift seeds 1, 2 and 3 all hit a tie at count 17; seed 4 does not.
        out = run_ok(cli, ["gen", "--net", "sobol", "--n", "2", "--s", "5",
                           "--count", "17", "--shift-seed", "1"])
        assert len(set(tried)) == len(tried)
        assert tried == [1, 2, 3, 4]
        assert "# shift_applied: 4" in out

    def test_unreachable_rescale_count_is_runtime_error(self, cli):
        # At n = 1 every shift permutes the grid, so no shift opens a
        # threshold window above 1/2: the first try and all 64 retries fail.
        result = cli(["gen", "--net", "sobol", "--n", "1", "--s", "4", "--count", "8"])
        assert (result.code, result.stdout) == (1, b"")
        assert result.stderr == ("Error: no admissible threshold for count=8 after 65 "
                                 "shift(s): threshold window below 1/2 (next=1/2)\n")

    def test_count_outside_the_rescale_range_is_input_error(self, cli):
        result = cli(["gen", "--s", "4", "--count", "5"])
        assert (result.code, result.stdout) == (2, b"")
        assert result.stderr == "Error: count 5 outside [2^(s-1), 2^s] for s=4\n"

    def test_file_net_round_trip(self, cli, tmp_path):
        gen = sobol_generators(2, 4)
        p = tmp_path / "net.txt"
        p.write_text(format_generator_file(gen))
        out = run_ok(cli, ["gen", "--net", f"file:{p}"])
        assert len(data_rows(out)) == 16


class TestCertify:
    def test_vdc_json(self, cli):
        out = run_ok(cli, ["certify", "--net", "van-der-corput", "--s", "6"])
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["deficiency"] == 0
        assert row["exhaustive"] is True
        assert row["box_counts_ok"] is True

    def test_sobol_positive_deficiency(self, cli):
        out = run_ok(cli, ["certify", "--net", "sobol", "--n", "4", "--s", "5"])
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["deficiency"] >= 1

    def test_csv_format(self, cli):
        out = run_ok(cli, ["certify", "--net", "van-der-corput", "--s", "4",
                           "--format", "csv"])
        assert "deficiency" in out.splitlines()[4]

    def test_malformed_file_exit_code(self, cli, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a net\n")
        result = cli(["certify", "--net", f"file:{bad}", "--s", "3"])
        assert result.code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--s", "6"], "source has s=7, requested s=6"),
        (["--n", "3"], "source has n=4, requested n=3"),
    ])
    def test_file_shape_mismatch_is_input_error(self, cli, tmp_path, flags, message):
        p = tmp_path / "sobol47.txt"
        p.write_text(format_generator_file(sobol_generators(4, 7)))
        result = cli(["certify", "--net", f"file:{p}", *flags])
        assert (result.code, result.stderr) == (2, f"Error: cannot load net: {message}\n")

    def test_sobol_without_n_is_input_error(self, cli):
        result = cli(["certify", "--net", "sobol", "--s", "4"])
        assert (result.code, result.stderr) == (
            2, "Error: cannot load net: sobol builtin needs n and s\n")

    def test_singular_file_exit_code(self, cli, tmp_path):
        singular = tmp_path / "singular.txt"
        singular.write_text("1 3\n\n110\n110\n110\n")  # rank 1
        result = cli(["certify", "--net", f"file:{singular}"])
        assert result.code == 2
        assert result.stderr == ("Error: cannot load net: generator map has rank 1 < 3; "
                                 "the net would collapse\n")

    @pytest.mark.parametrize("net, n, s, deficiency", [
        *(("van-der-corput", 2, s, 0) for s in range(1, 9)),
        ("sobol", 4, 6, 2),
        ("sobol", 6, 8, 4),
    ])
    def test_exact_without_dual_enumeration(self, cli, net, n, s, deficiency):
        # The Sobol (6, 8) dual has 2^40 elements; the rank conditions still
        # give t exactly.  The printed dual weight is s + 1 - deficiency.
        out = run_ok(cli, ["certify", "--net", net, "--n", str(n), "--s", str(s)])
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert "cap" not in doc["config"]
        assert (row["deficiency"], row["dual_rt_weight"]) == (deficiency, s + 1 - deficiency)
        assert row["exhaustive"] is True
        assert row["box_counts_ok"] is True

    def test_box_check_above_s12_is_named_on_stderr(self, cli):
        result = cli(["certify", "--net", "sobol", "--n", "3", "--s", "13"])
        doc = json.loads(result.stdout)
        assert result.code == 0 and doc["config"]["box_check"] is True
        assert doc["rows"][0][doc["columns"].index("box_counts_ok")] is None
        assert result.stderr == "certify: box cross-check skipped; it runs for s <= 12 only\n"

    def test_no_box_check_prints_no_skip_line(self, cli):
        args = ["certify", "--net", "sobol", "--n", "3", "--s", "13"]
        skipped, unasked = cli(args), cli(args + ["--no-box-check"])
        assert unasked.code == 0 and unasked.stderr == ""
        # The config echo is all that differs on stdout.
        assert unasked.stdout == skipped.stdout.replace(
            b'"box_check": true', b'"box_check": false')

    @pytest.mark.parametrize("fmt, unchecked", [("json", None), ("csv", "None")])
    def test_no_box_check_skips_box_counts(self, cli, monkeypatch, fmt, unchecked):
        import dyadnet.cli as cli_mod

        real = cli_mod.verify_box_counts
        calls = []

        def spy(words, s, deficiency):
            calls.append(deficiency)
            return real(words, s, deficiency)

        # The CLI binds the name from dyadnet.nets at import.
        monkeypatch.setattr(cli_mod, "verify_box_counts", spy)
        args = ["certify", "--net", "van-der-corput", "--s", "5", "--format", fmt]
        run_ok(cli, args)
        assert len(calls) == 1
        out = run_ok(cli, args + ["--no-box-check"])
        assert len(calls) == 1
        if fmt == "json":
            doc = json.loads(out)
            row = dict(zip(doc["columns"], doc["rows"][0]))
        else:
            header, values = [l for l in out.splitlines() if not l.startswith("#")]
            row = dict(zip(header.split(","), values.split(",")))
        assert row["box_counts_ok"] == unchecked


class TestVerify:
    def test_single_net_passes(self, cli):
        out = run_ok(cli, ["verify", "--net", "sobol", "--n", "3", "--s", "3"])
        assert "poisson-summation,True" in out
        assert "route-equivalence,True" in out

    def test_default_bundle_passes(self, cli):
        out = run_ok(cli, ["verify"])
        assert out.count("route-equivalence,True") == 3
        # Only net suites: case counts of the planar builtin at s = 2, 3, 4,
        # the 2^(2s) grid for Poisson and for route equivalence, the
        # 2^(2s+4) gap grid, and the grid once per nonzero leading-digit group.
        want = []
        for counts in ((16, 16, 256, 48), (64, 64, 1024, 384),
                       (256, 256, 4096, 2560)):
            want += zip(("poisson-summation", "route-equivalence",
                         "approximation-gap", "delta-identities"), counts)
        assert data_rows(out) == [f"{name},True,{k}," for name, k in want]

    def test_three_dimensional_bundle_passes(self, cli):
        # In three dimensions some dual indices have an odd number of nonzero
        # coordinates, so a dual table that flips the sign of one
        # coordinate's interval coefficient fails route equivalence; the
        # planar bundle cannot see it.  Case counts of Sobol n = 3 at s = 2, 3, 4: the 2^(3s)
        # grid twice, the 2^(3s+6) gap grid, and the grid once per nonzero
        # leading-digit group.
        out = run_ok(cli, ["verify", "--net", "sobol", "--n", "3"])
        want = []
        for counts in ((64, 64, 4096, 832), (512, 512, 32768, 18944),
                       (4096, 4096, 262144, 323584)):
            want += zip(("poisson-summation", "route-equivalence",
                         "approximation-gap", "delta-identities"), counts)
        assert data_rows(out) == [f"{name},True,{k}," for name, k in want]

    def test_grid_above_the_cap_is_runtime_error(self, cli):
        # 2^25 cells and a 33^5 gap table: the two grid checks refuse before
        # any table, each with its own row, and the group checks run on the
        # 2^20-word dual, Delta over 6941 nonzero groups.
        result = cli(["verify", "--net", "sobol", "--n", "5", "--s", "5"])
        assert result.code == 1
        refused = '{"refused": "grid has %s points, above the enumeration cap"}'
        assert data_rows(result.stdout.decode()) == [
            f"poisson-summation,True,{1 << 25},",
            f"route-equivalence,False,0,{refused % '2^25'}",
            f"approximation-gap,False,0,{refused % '33^5'}",
            f"delta-identities,True,{6941 << 25},",
        ]
        assert result.stderr == (
            "Error: route-equivalence refused: grid has 2^25 points, above the "
            "enumeration cap; approximation-gap refused: grid has 33^5 points, "
            "above the enumeration cap\n")

    def test_gap_grid_above_the_cap_is_runtime_error(self, cli, monkeypatch):
        # Van der Corput s = 4 under a cap of 2^8: the 2^8 cells of route
        # equivalence fit, but the gap's box table on the 17^2 grid does
        # not, so the gap check alone refuses.
        from dyadnet import discrepancy

        monkeypatch.setattr(discrepancy, "ENUM_CAP", 1 << 8)
        result = cli(["verify", "--net", "van-der-corput", "--s", "4"])
        assert result.code == 1
        rows = data_rows(result.stdout.decode())
        assert rows[2] == ('approximation-gap,False,0,'
                           '{"refused": "grid has 17^2 points, above the enumeration cap"}')
        assert [r.split(",")[:2] for r in rows[:2] + rows[3:]] == [
            ["poisson-summation", "True"], ["route-equivalence", "True"],
            ["delta-identities", "True"]]
        assert result.stderr == ("Error: approximation-gap refused: grid has 17^2 "
                                 "points, above the enumeration cap\n")

    def test_failure_exit_code(self, cli, monkeypatch):
        # The command imports the suite when it runs, so the patch goes
        # on the defining module.
        import dyadnet.verify as verify_mod

        def fake_suite(ctx):
            return [IdentityResult("poisson-summation", False, 1,
                                   witness={"L": (1, 0)})]

        monkeypatch.setattr(verify_mod, "run_net_suite", fake_suite)
        result = cli(["verify", "--net", "van-der-corput", "--s", "2"])
        assert result.code == 3
        out = result.stdout.decode()
        assert "poisson-summation,False" in out
        assert '"L": [1, 0]' in out

    def test_failure_wins_over_a_refusal(self, cli, monkeypatch):
        import dyadnet.verify as verify_mod

        def fake_suite(ctx):
            return [IdentityResult("poisson-summation", False, 0,
                                   witness={"refused": "grid too large"}),
                    IdentityResult("delta-identities", False, 0,
                                   witness={"reason": "rank identity"})]

        monkeypatch.setattr(verify_mod, "run_net_suite", fake_suite)
        result = cli(["verify", "--net", "van-der-corput", "--s", "2"])
        assert result.code == 3
        assert result.stderr == ("Error: identity suite failed; "
                                 "poisson-summation refused: grid too large\n")

    def test_file_net_uses_its_own_shape(self, cli, tmp_path):
        gen = sobol_generators(3, 4)
        p = tmp_path / "net.txt"
        p.write_text(format_generator_file(gen))
        out = run_ok(cli, ["verify", "--net", f"file:{p}"])
        assert "route-equivalence,True" in out



class TestNorms:
    def test_output_columns(self, cli):
        out = run_ok(cli, ["norms", "--net", "van-der-corput", "--s", "3",
                           "--samples", "2000", "--q-grid", "1,2"])
        header = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header == "target,q,estimate,stderr,samples,normalized_ratio"
        assert "# m_l2_exact" in out

    def test_trivial_distribution_norms_vanish(self, cli):
        out = run_ok(cli, ["norms", "--net", "sobol", "--n", "1", "--s", "4",
                           "--target", "m", "--samples", "2000"])
        for row in data_rows(out):
            cells = row.split(",")
            assert float(cells[2]) == 0.0

    def test_oracle_within_three_sigma(self, cli):
        out = run_ok(cli, ["norms", "--net", "van-der-corput", "--s", "3",
                           "--target", "m", "--samples", "40000",
                           "--q-grid", "2", "--format", "json"])
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        exact = doc["extras"]["m_l2_exact"]
        assert abs(row["estimate"] - exact) <= 3 * row["stderr"]

    def test_m_target_above_the_dual_cap(self, cli):
        # The dual of this net has 2^40 elements; M and its oracle stay on the net.
        out = run_ok(cli, ["norms", "--net", "sobol", "--n", "5", "--s", "10",
                           "--target", "m", "--samples", "4096", "--q-grid", "2"])
        assert "# m_l2_exact" in out
        assert len(data_rows(out)) == 1

    def test_both_targets_equal_the_separate_runs(self, cli):
        # One shifted context feeds both samplers; the shift must not reach M.
        args = ["norms", "--net", "sobol", "--n", "3", "--s", "5", "--samples", "3000",
                "--q-grid", "1,2,8", "--seed", "4", "--shift-seed", "9", "--format", "json"]
        both, dn, m = (json.loads(run_ok(cli, args + ["--target", target]))
                       for target in ("both", "dn", "m"))
        assert both["rows"] == dn["rows"] + m["rows"]
        assert both["extras"] == {**dn["extras"], **m["extras"]}
        assert set(dn["extras"]).isdisjoint(m["extras"])


@pytest.mark.parametrize("args", [
    ["certify", "--net", "sobol", "--n", "4", "--s", "7"],
    ["norms", "--net", "sobol", "--n", "3", "--s", "6", "--samples", "1024"],
], ids=["certify", "norms"])
def test_net_is_reduced_once(cli, monkeypatch, args):
    # The generator set reduces its subspace once; every consumer reads it.
    from dyadnet.f2core import F2Subspace

    real = F2Subspace.from_packed.__func__
    calls = []

    def spy(cls, n, s, vectors):
        calls.append((n, s))
        return real(cls, n, s, vectors)

    monkeypatch.setattr(F2Subspace, "from_packed", classmethod(spy))
    run_ok(cli, args)
    assert len(calls) == 1


class TestSweep:
    def test_deterministic_rerun(self, cli, tmp_path):
        args = ["sweep", "--net", "van-der-corput", "--s-min", "3", "--s-max", "4",
                "--shifts", "2", "--samples", "2000", "--seed", "3"]
        run_ok(cli, args + ["--out", str(tmp_path / "a.csv")])
        run_ok(cli, args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_single_resolution_block(self, cli):
        out = run_ok(cli, ["sweep", "--net", "van-der-corput", "--s", "4",
                           "--shifts", "2", "--samples", "1000",
                           "--q-grid", "2"])
        rows = data_rows(out)
        kinds = {r.split(",")[0] for r in rows}
        assert kinds == {"dn", "summary-min", "summary-median", "summary-max"}
        assert all(r.split(",")[1] == "4" for r in rows)

    def test_no_summary_for_single_shift(self, cli):
        out = run_ok(cli, ["sweep", "--net", "van-der-corput", "--s", "3",
                           "--shifts", "1", "--samples", "1000", "--q-grid", "2"])
        assert "summary" not in out

    def test_bad_range(self, cli):
        result = cli(["sweep", "--net", "van-der-corput", "--s-min", "5", "--s-max", "3"])
        assert result.code == 2


# Each command's exit code and stdout sha256, recorded at commit 9b13492
# (the single-net Sobol verify runs at (3, 5) and (4, 3), which reach the
# 3-D and 4-D groups, at c5f9c00; at (3, 6) and (4, 4) at d6e964b, where
# the group check still read whole-grid tables; at (3, 7), which refused
# the whole suite there, once each check refused on its own; verify at
# (4, 5), (5, 4), (10, 1), (1, 3) and (5, 5) and at van der Corput s = 10,
# the 200-point gen and the 256-sample norms and sweep runs at 48f12bb).
# The certify, verify and gen lines are integer or Fraction arithmetic;
# the norms and sweep floats are seeded and reduced in a fixed order.  The
# provenance header names the package version, so a version bump changes
# every digest.
PINNED_STDOUT = {
    "certify-sobol-4-7": (
        ["certify", "--net", "sobol", "--n", "4", "--s", "7"], 0,
        "3836733620838c5d29962bde7f7411819afbbed7600b8f991e4250d326044a0a"),
    # The rank walk over the compositions and the box check at n = 5.
    "certify-sobol-5-5": (
        ["certify", "--net", "sobol", "--n", "5", "--s", "5"], 0,
        "0f8913f33f4128753b5fd84f88b67aa25bdfad017d98dd4c925c375accc38969"),
    # Also the output of a bare `verify`.
    "verify-shift-seed-0": (
        ["verify", "--shift-seed", "0"], 0,
        "83d5666fe0664cbd5ddfe378b10f1017418de43ae2fa762ba9ae37f35b6e85be"),
    # The verify bundle of the benchmark's certify pass at seed 3.
    "verify-shift-seed-3": (
        ["verify", "--shift-seed", "3"], 0,
        "b5cb4e4e0ae3f34077f6d2918e06821696cde0bec9ef53c4a5fae5f39c8d6672"),
    "verify-sobol-3": (
        ["verify", "--net", "sobol", "--n", "3"], 0,
        "37f55088dd6bfb9a7143ea18893ca1954452201fc40f570a14866c5dc59e77d9"),
    # Groups that repeat their strictly-below subgroups and include
    # one-member cosets.
    "verify-sobol-3-5": (
        ["verify", "--net", "sobol", "--n", "3", "--s", "5"], 0,
        "4eeaec0f5ac6952d2a51bf18a03decad302b25a1d5e09bdebb65caf7065b474b"),
    # 143 nonempty groups, 51 of them one-member cosets with Lambda0 = {0}.
    "verify-sobol-3-5-shift-seed-1": (
        ["verify", "--net", "sobol", "--n", "3", "--s", "5", "--shift-seed", "1"], 0,
        "b8c7485ad040a2c6ecf077600fef652ad591518880a3f5286ba344945eb0be0b"),
    # A 4-D dual.
    "verify-sobol-4-3": (
        ["verify", "--net", "sobol", "--n", "4", "--s", "3"], 0,
        "1244e0d2ce5e24708ea5830bfeebbac1b0e1c0a8bcf366d2343b5956154878ea"),
    # The group check once took seconds here.
    "verify-sobol-3-6": (
        ["verify", "--net", "sobol", "--n", "3", "--s", "6"], 0,
        "4ecdb1c252e6851d6fbeb0502c5cd24a74e8c36da41c05d00e1415e481094b2c"),
    # 478 groups with 4-D strictly-below subgroups.
    "verify-sobol-4-4": (
        ["verify", "--net", "sobol", "--n", "4", "--s", "4"], 0,
        "eeb864ccc934980a99016b336bb94b08b687952e533bed13d9e8541f0b83eba8"),
    # 2^21 cells and a 129^3 gap table, both within the cap: four passing rows.
    "verify-sobol-3-7": (
        ["verify", "--net", "sobol", "--n", "3", "--s", "7"], 0,
        "819542d4c26489c9cb4100f109e302cda2b1fcd45ee33662d3703c5abdcdcf7b"),
    # 2^20 cells and a 33^4 gap table, both within the cap: four passing rows.
    "verify-sobol-4-5": (
        ["verify", "--net", "sobol", "--n", "4", "--s", "5"], 0,
        "8addb097076a3d334b3dd479d073edb665748287e9971023a05b474887fafc89"),
    # The Delta check ranks each group's shape (nets._shape_rank) on a 5-D
    # net whose dual has 2^16 words; all four rows pass.
    "verify-sobol-5-4": (
        ["verify", "--net", "sobol", "--n", "5", "--s", "4"], 0,
        "5c6b49b47ec0070499af31c94c95ced9f860c66d8b0ddfe47c19872bfea8982b"),
    # A 3^10 gap table over 2^10 cells, laid out through f2core._index at
    # side 3, the one packed-order position.
    "verify-sobol-10-1": (
        ["verify", "--net", "sobol", "--n", "10", "--s", "1"], 0,
        "e59fe71ef1e2f84ab6349f8c5e8c6b5bbaf4c21745af20d9137d5f34f78326de"),
    # The dual is {0}, so the Delta row passes with 0 checked.
    "verify-sobol-1-3": (
        ["verify", "--net", "sobol", "--n", "1", "--s", "3"], 0,
        "cddb86f73ceff3febbe119b636ba3565e379dd813a96c467731ec4275d305502"),
    # Route equivalence once took 23 s here, in int64 mode products.
    "verify-van-der-corput-10": (
        ["verify", "--s", "10"], 0,
        "33fad46727c17124a463e71b4cf736b210cf3ae4dee9f27b33c8f3899c462eee"),
    # Both grid tables above the cap, 2^26 cells and an 8193^2 gap table:
    # each grid check refuses on its own, so the run exits 1 after its
    # rows.  Poisson summation and the Delta identities build no grid
    # table and read only the 2^13-word dual, so both rows pass.
    "verify-van-der-corput-13": (
        ["verify", "--s", "13"], 1,
        "e7246db437e0388b4f092a590cf97c0ae5097ba2b9244ea396a0c3c1f41a62a7"),
    # As van der Corput s = 13: 2^25 cells and a 33^5 gap table refused,
    # passing Poisson and Delta rows over a 2^20-word dual; exits 1.
    "verify-sobol-5-5": (
        ["verify", "--net", "sobol", "--n", "5", "--s", "5"], 1,
        "cdf28afb3a05aedeb6b6df1de2ee9d21948bbc8d5dea19c3f7517877a7cbcffe"),
    "gen-float": (
        ["gen", "--net", "sobol", "--n", "3", "--s", "10", "--count", "700",
         "--shift-seed", "3"], 0,
        "1429a076d441785cf32045de417b932510a364c6231783613c7f3999f54e84f1"),
    # The benchmark's gen command: 12000 of 2^14 rescaled points.
    "gen-benchmark-12000": (
        ["gen", "--net", "sobol", "--n", "3", "--s", "14", "--count", "12000",
         "--shift-seed", "6"], 0,
        "750e685848b34ff9eecc292da6fb02f5fcd51e2413ffd0d4c2008ce4395553de"),
    "gen-exact": (
        ["gen", "--net", "sobol", "--n", "3", "--s", "10", "--count", "700",
         "--shift-seed", "3", "--exact"], 0,
        "0b930180305035626804adfee913fe866aa583dcbcb696d7b68ead5e3594b76b"),
    "gen-sobol-3-8-count-200": (
        ["gen", "--net", "sobol", "--n", "3", "--s", "8", "--count", "200",
         "--shift-seed", "1"], 0,
        "0a9745b8e25db2207c7936b0ec3f01cd4b45e6504d26121a3144b97898ae33b2"),
    # The order of the net listing: gen without --count prints the points
    # in listing order, and m_sampler's float sums follow packed_net.
    "norms-benchmark-seed-3": (
        ["norms", "--net", "sobol", "--n", "3", "--s", "6", "--target", "both",
         "--samples", "16384", "--q-grid", "1,2,4,8", "--seed", "3", "--shift-seed", "3"], 0,
        "5f0bf24cae7a1c3e3f89c1ea26ff0958a9010f767629ebd4c68b71236c7fb305"),
    "gen-listing-order": (
        ["gen", "--net", "sobol", "--n", "3", "--s", "8", "--shift-seed", "5"], 0,
        "f268e8c2e70a2e7b19b87f4ece39009408bede1254700e4ec2fb9b143de165fd"),
    "gen-listing-order-exact": (
        ["gen", "--net", "sobol", "--n", "3", "--s", "8", "--shift-seed", "5", "--exact"], 0,
        "d84f751c781f7b0644d40790bfd907d9f63f1299a4b1e4a0e098c6eefd9e3215"),
    "sweep-sobol-3": (
        ["sweep", "--net", "sobol", "--n", "3", "--s-min", "4", "--s-max", "6",
         "--shifts", "3", "--samples", "2048"], 0,
        "d2be0310755db4f1da3c6b518e3fd050260e13191467bd8b8aebe82b5f577ff2"),
    "sweep-sobol-3-4-5": (
        ["sweep", "--net", "sobol", "--n", "3", "--s-min", "4", "--s-max", "5",
         "--shifts", "2", "--samples", "256"], 0,
        "7cd0337da3ed07c5fd71db27c422006740a9080f0fbb086f53d3cc94da4e95c9"),
    "certify-sobol-6-10-csv": (
        ["certify", "--net", "sobol", "--n", "6", "--s", "10", "--format", "csv"], 0,
        "504bcf2a9b9ac10b7229cb0b6d0c115a7d99b4b36cfae18d503c03641ca13e7d"),
    # Stratified sampling and a --theta other than (n+1)/2.
    "norms-stratified-theta": (
        ["norms", "--net", "sobol", "--n", "3", "--s", "5", "--samples", "2048",
         "--q-grid", "1,2,4", "--stratified", "--theta", "1.5", "--seed", "7",
         "--shift-seed", "2"], 0,
        "d40142d7eb192d25762825f9480dcb95577ae61a073be70521b6c82e9922bb94"),
    "norms-van-der-corput-4": (
        ["norms", "--net", "van-der-corput", "--s", "4", "--samples", "256",
         "--q-grid", "2"], 0,
        "646c55e70576d3b93832194203143728377a04dc237333b38c7f417ee6ec994a"),
    # The D_N target on a net of 2^13 points.
    "norms-sobol-3-13-dn": (
        ["norms", "--net", "sobol", "--n", "3", "--s", "13", "--target", "dn",
         "--samples", "256", "--q-grid", "2"], 0,
        "1ca80424fda5ab444238c502b8d67ee8e2fdda309484911693b0039beed7970d"),
    # A dual of 2^40 words, above the enumeration cap: the cap gates only
    # the dual route, and the M target never lists the dual.
    "norms-sobol-5-10-m": (
        ["norms", "--net", "sobol", "--n", "5", "--s", "10", "--target", "m",
         "--q-grid", "2", "--samples", "256"], 0,
        "f99cc52f9d31dc44ae73ee0d5023b3310d291e128410a32c507c652a26cefc19"),
}


@pytest.mark.parametrize("name", PINNED_STDOUT)
def test_pinned_stdout(cli, name):
    args, code, digest = PINNED_STDOUT[name]
    result = cli(args)
    assert result.code == code, result.stderr
    if code == 0:
        assert result.stderr == ""
    else:
        assert "Traceback" not in result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == digest


class TestOptions:
    # argparse keeps the last occurrence of an option, so the out-of-range
    # value wins over the leading "--s 3".  Every flag here must be at
    # least 1, except --shift-retries, which must be at least 0.
    @pytest.mark.parametrize("command, flag", [("norms", "--samples"),
                                               ("sweep", "--samples"),
                                               ("sweep", "--shifts"),
                                               ("verify", "--s"),
                                               ("norms", "--s"),
                                               ("gen", "--s"),
                                               ("certify", "--s"),
                                               ("sweep", "--s"),
                                               ("gen", "--shift-retries")])
    def test_zero_count_is_input_error(self, cli, command, flag):
        value = "-1" if flag == "--shift-retries" else "0"
        result = cli([command, "--net", "van-der-corput", "--s", "3", flag, value])
        assert result.code == 2
        assert flag in result.stderr

    @pytest.mark.parametrize("args", [
        ["certify", "--s", "3", "--format", "json"],
        ["verify", "--s", "3", "--format", "csv"],
        ["gen", "--net", "sobol", "--n", "2", "--s", "3"],
    ], ids=["certify", "verify", "gen"])
    def test_unwritable_out_is_runtime_error(self, cli, tmp_path, args):
        result = cli(args + ["--out", str(tmp_path / "missing" / "x")])
        assert result.code == 1
        assert "cannot write" in result.stderr

    @pytest.mark.parametrize("command", ["norms", "sweep"])
    def test_negative_seed_is_input_error(self, cli, command):
        result = cli([command, "--net", "van-der-corput", "--s", "3", "--seed", "-1"])
        assert result.code == 2
        assert "--seed" in result.stderr

    @pytest.mark.parametrize("args", [
        ["norms", "--target", "m", "--seed", str(2**128 - 1)],
        ["norms", "--target", "dn", "--seed", str(2**128)],
        ["sweep", "--shifts", "1", "--seed", str(2**128 - 456)],
    ], ids=["norms-m", "norms-dn", "sweep"])
    def test_seed_outside_the_key_range_is_input_error(self, cli, args):
        # numpy's Philox takes keys below 2^128; norms keys its m target at
        # seed + 1, sweep resolution s and shift r at seed + 104729 s + r.
        result = cli(args + ["--s", "3", "--samples", "64", "--q-grid", "2"])
        assert (result.code, result.stdout) == (2, b"")
        assert result.stderr.startswith("Error: bad --seed: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["gen", "verify", "norms"])
    def test_negative_shift_seed_is_input_error(self, cli, command):
        # random.Random hashes abs(seed), so -5 would print the points of 5.
        result = cli([command, "--net", "van-der-corput", "--s", "3",
                      "--shift-seed", "-5"])
        assert result.code == 2
        assert "--shift-seed" in result.stderr

    @pytest.mark.parametrize("flag, value", [("--q-grid", "nan"),
                                             ("--q-grid", "2,inf"),
                                             ("--theta", "nan"),
                                             ("--theta", "-inf")])
    def test_non_finite_exponent_is_input_error(self, cli, flag, value):
        result = cli(["norms", "--net", "van-der-corput", "--s", "3",
                      "--samples", "64", flag, value, "--format", "json"])
        assert result.code == 2
        assert "finite" in result.stderr

    @pytest.mark.parametrize("command", ["norms", "sweep"])
    def test_empty_q_grid_is_input_error(self, cli, command):
        # An empty grid is refused, not read as a missing --q-grid.
        result = cli([command, "--net", "van-der-corput", "--s", "3",
                      "--samples", "64", "--q-grid", ""])
        assert result.code == 2
        assert "bad q grid: moment grid must be nonempty" in result.stderr

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_theta_is_input_error(self, cli, value):
        # q^-theta ||f||_q has no exponential-Orlicz meaning for theta <= 0.
        result = cli(["norms", "--net", "van-der-corput", "--s", "3",
                      "--samples", "64", "--theta", value])
        assert result.code == 2
        assert result.stdout == b""
        assert "--theta" in result.stderr
        assert "orlicz" not in result.stderr

    @pytest.mark.parametrize("command", ["norms", "sweep"])
    def test_overflowing_moment_is_runtime_error(self, cli, command):
        # |D_N| > 1 somewhere, so its 2000th power overflows float64.
        args = [command, "--net", "van-der-corput", "--s", "3", "--samples", "256",
                "--q-grid", "1,2000"]
        if command == "sweep":
            args += ["--shifts", "1"]
        result = cli(args)
        assert result.code == 1
        assert result.stdout == b""
        assert "q=2000.0" in result.stderr
        assert "inf" not in result.stderr and "nan" not in result.stderr

    @pytest.mark.parametrize("command", ["norms", "sweep"])
    def test_workers_is_not_an_option(self, cli, command):
        result = cli([command, "--net", "van-der-corput", "--s", "3", "--workers", "2"])
        assert result.code == 2
        assert "--workers" in result.stderr

    def test_readme_lists_every_option(self, cli):
        # The commands, from the parser's usage line, and then the long
        # option strings of each command's usage.
        usage = run_ok(cli, ["--help"]).split("\n\n", 1)[0]
        commands = re.search(r"\{([a-z,]+)\}", usage).group(1).split(",")
        assert "certify" in commands
        options = set()
        for command in commands:
            usage = run_ok(cli, [command, "--help"]).split("\n\n", 1)[0]
            options.update(re.findall(r"--[a-z][a-z-]*", usage))
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
        assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == options

    @pytest.mark.parametrize("args, code, last_line", [
        # Option names are never abbreviated (argparse would read --samples).
        (["norms", "--sample", "64"], 2, []),
        ([], 2, []),
        (["no-such-command"], 2, []),
        (["--version"], 0, ["dyadnet, version 0.1.0"]),
        (["certify", "--s", "3", "--format", "csv", "--no-box-check"], 0,
         ["2,3,0,4,True,None"]),
    ], ids=["abbreviated-option", "no-command", "unknown-command", "version",
            "no-box-check"])
    def test_command_line_keeps_click_behaviour(self, cli, args, code, last_line):
        result = cli(args)
        assert (result.code, result.stdout.decode().splitlines()[-1:]) == (code, last_line)

    def test_readme_library_example_runs(self):
        # Every name the example imports must still be exported.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Library example\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})


SRC = str(Path(__file__).resolve().parents[1] / "src")


# The child's stdout is buffered, as a CLI process's normally is, so the
# flush cases below find text pending in the buffer; the unbuffered
# closed-pipe case sets PYTHONUNBUFFERED itself.
CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": SRC}


def cli_argv(args, code=None) -> list[str]:
    """`python -m dyadnet.cli ARGS` or, with `code`, `python -c CODE ARGS`;
    both reach the process entry `run`."""
    head = ["-m", "dyadnet.cli"] if code is None else ["-c", code]
    return [sys.executable, *head, *args]


def cli_process(args, code=None, **kwargs):
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(cli_argv(args, code), stderr=subprocess.PIPE, env=CHILD_ENV,
                          timeout=120, **kwargs)


# Runs `run` from `python -c`, after registering an exit handler that
# reports on stderr whether the interpreter tore down normally.
ENTRY_PROBE = """
import atexit, sys
atexit.register(lambda: print("teardown", file=sys.stderr))
import dyadnet.cli as cli
{setup}
sys.argv = ["dyadnet", *sys.argv[1:]]
cli.run()
"""


def workflow_step(name: str) -> str:
    """The `run:` block of the `shell: bash` step `name` of the CI
    workflow, without its indentation.  It is read by hand, since the
    YAML parser is no test dependency."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    keys, block = workflow.read_text().split(f"- name: {name}\n", 1)[1].split("run: |\n", 1)
    assert keys.split() == ["shell:", "bash"], keys
    indent = re.match(" *", block).group()
    lines = []
    for line in block.splitlines():
        if line.strip() and not line.startswith(indent):
            break
        lines.append(line[len(indent):])
    return "\n".join(lines).rstrip() + "\n"


def console_script_entry() -> str:
    """The `module:attr` that pyproject.toml's [project.scripts] declares
    for `dyadnet`, read by hand, since `tomllib` is no module of Python 3.10."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    return re.search(r'^\[project\.scripts\]\ndyadnet = "(.+)"$', pyproject, re.M).group(1)


def run_step(script: str, entry: str, tmp_path):
    """Run `script` as GitHub's `shell: bash` runs a step, with `python`,
    this interpreter, and `dyadnet` first on PATH.  The `dyadnet` shim
    imports and calls `entry`, a `module:attr`, as pip's console-script
    wrapper does."""
    module, attr = entry.split(":")
    script_head = f" -c 'import sys; from {module} import {attr}; sys.exit({attr}())'"
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, head in (("dyadnet", script_head), ("python", "")):
        (shims / name).write_text(f'#!/bin/sh\nexec "{sys.executable}"{head} "$@"\n')
        (shims / name).chmod(0o755)
    (tmp_path / "step.sh").write_text(script)
    env = {**CHILD_ENV, "PATH": f"{shims}{os.pathsep}{os.environ['PATH']}"}
    return subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "step.sh"],
                          cwd=tmp_path, env=env, capture_output=True, timeout=600)


class TestProcess:
    @pytest.mark.parametrize("args", [
        ["certify", "--net", "sobol", "--n", "4", "--s", "7"],
        ["verify"],
        ["gen", "--net", "sobol", "--n", "3", "--s", "6", "--count", "40",
         "--shift-seed", "1"],
        ["norms", "--net", "sobol", "--n", "3", "--s", "5", "--samples", "1024",
         "--q-grid", "1,2"],
        ["sweep", "--net", "van-der-corput", "--s", "4", "--shifts", "2",
         "--samples", "512", "--q-grid", "2"],
    ], ids=["certify", "verify", "gen", "norms", "sweep"])
    def test_stdout_matches_the_in_process_run(self, cli, args):
        proc = cli_process(args)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == cli(args).stdout

    def test_out_file_matches_the_in_process_run(self, cli, tmp_path):
        args = ["gen", "--net", "sobol", "--n", "3", "--s", "6", "--shift-seed", "1",
                "--exact", "--out"]
        proc = cli_process(args + [str(tmp_path / "process.csv")])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        run_ok(cli, args + [str(tmp_path / "in_process.csv")])
        assert ((tmp_path / "process.csv").read_bytes()
                == (tmp_path / "in_process.csv").read_bytes())

    def test_error_exit_codes(self):
        proc = cli_process(["verify", "--s", "13"])
        assert proc.returncode == 1
        assert b"above the enumeration cap" in proc.stderr
        proc = cli_process(["certify", "--s", "0"])
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr

    @staticmethod
    def closed_pipe_run(env) -> tuple[int, bytes]:
        # About 0.8 MB of CSV in one write: the reader takes one line and
        # closes the pipe while the child still writes.
        with subprocess.Popen(cli_argv(["gen", "--net", "sobol", "--n", "3", "--s", "14"]),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline().startswith(b"# dyadnet ")
            proc.stdout.close()
            stderr = proc.stderr.read()
        return proc.returncode, stderr

    def test_closed_stdout_is_runtime_error(self):
        code, stderr = self.closed_pipe_run(CHILD_ENV)
        assert code == 1
        assert b"Traceback" not in stderr

    def test_closed_unbuffered_stdout_is_runtime_error(self):
        # Unbuffered stdout is a raw file, whose write returns a short
        # count when the pipe closes; the output must not end as a success.
        code, stderr = self.closed_pipe_run({**CHILD_ENV, "PYTHONUNBUFFERED": "1"})
        assert code == 1
        assert b"Traceback" not in stderr

    def test_run_ends_without_teardown(self):
        proc = cli_process(["certify", "--s", "2"], ENTRY_PROBE.format(setup=""))
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"{") and proc.stderr == b""

    def test_run_flushes_pending_output(self):
        # Text left in the stdout buffer reaches the pipe before the exit.
        setup = 'sys.stdout.write("pending ")'
        proc = cli_process(["certify", "--s", "0"], ENTRY_PROBE.format(setup=setup))
        assert proc.returncode == 2
        assert proc.stdout == b"pending "
        assert b"teardown" not in proc.stderr

    def test_failed_flush_is_runtime_error(self):
        # The usage error exits 2, but the pending text cannot be written.
        setup = 'sys.stdout.write("pending")'
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cli_process(["certify", "--s", "0"], ENTRY_PROBE.format(setup=setup),
                               stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr and b"teardown" not in proc.stderr

    def test_other_exceptions_exit_normally(self):
        setup = "def boom():\n    raise RuntimeError('boom')\ncli.main = boom"
        proc = cli_process([], ENTRY_PROBE.format(setup=setup))
        assert proc.returncode == 1
        assert b"RuntimeError: boom" in proc.stderr
        assert proc.stderr.endswith(b"teardown\n")

    def test_interrupt_is_aborted_without_traceback(self):
        # As click's standalone mode did: "Aborted!" on stderr and exit 1.
        setup = ("def interrupt(sub):\n    raise KeyboardInterrupt\n"
                 "cli.certify_deficiency = interrupt")
        proc = cli_process(["certify", "--s", "3"], ENTRY_PROBE.format(setup=setup))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"\nAborted!\n")

    def test_console_script_uses_the_process_entry(self):
        assert console_script_entry() == "dyadnet.cli:run"

    def test_console_script_step(self, tmp_path):
        proc = run_step(workflow_step("Console script"), console_script_entry(), tmp_path)
        assert proc.returncode == 0, proc.stderr.decode()[-2000:]

    def test_a_missing_script_entry_fails_the_step(self, tmp_path):
        proc = run_step(workflow_step("Console script"), "dyadnet.cli:no_such_entry", tmp_path)
        assert proc.returncode != 0 and b"ImportError" in proc.stderr
