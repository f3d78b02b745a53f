import json
import re
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from dyadnet.cli import main
from dyadnet.nets import format_generator_file, sobol_generators
from dyadnet.verify import IdentityResult


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


def data_rows(output: str) -> list[str]:
    lines = [l for l in output.splitlines() if l and not l.startswith("#")]
    return lines[1:]  # drop the column header


class TestGen:
    def test_row_count(self, runner):
        out = run_ok(runner, ["gen", "--net", "van-der-corput", "--s", "4"])
        assert len(data_rows(out)) == 16

    def test_rescaled_count(self, runner):
        out = run_ok(runner, ["gen", "--net", "sobol", "--n", "3", "--s", "8",
                              "--count", "200"])
        assert len(data_rows(out)) == 200

    def test_deterministic_rerun(self, runner, tmp_path):
        args = ["gen", "--net", "sobol", "--n", "2", "--s", "5",
                "--shift-seed", "9"]
        a = run_ok(runner, args + ["--out", str(tmp_path / "a.csv")])
        b = run_ok(runner, args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_exact_format(self, runner):
        out = run_ok(runner, ["gen", "--net", "van-der-corput", "--s", "3", "--exact"])
        rows = data_rows(out)
        assert all("/2^3" in cell for row in rows for cell in row.split(","))
        assert "# mode: exact" in out

    def test_provenance_header(self, runner):
        out = run_ok(runner, ["gen", "--net", "van-der-corput", "--s", "2"])
        assert out.startswith("# dyadnet ")
        assert "# command: gen" in out
        assert "# config: " in out

    def test_missing_s_is_input_error(self, runner):
        result = runner.invoke(main, ["gen", "--net", "van-der-corput"])
        assert result.exit_code == 2

    def test_malformed_matrix_file(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3\n\n101\n01\n001\n\n111\n010\n001\n")
        result = runner.invoke(main, ["gen", "--net", f"file:{bad}", "--s", "3"])
        assert result.exit_code == 2
        assert "line" in result.output

    def test_retries_never_repeat_a_shift(self, runner, monkeypatch):
        import dyadnet.nets as nets_mod

        real = nets_mod._rescale_once
        tried = []

        def spy(gen, count, shift):
            tried.append(shift.seed)
            return real(gen, count, shift)

        monkeypatch.setattr(nets_mod, "_rescale_once", spy)
        # Shift seeds 1, 2 and 3 all hit a tie at count 17; seed 4 does not.
        out = run_ok(runner, ["gen", "--net", "sobol", "--n", "2", "--s", "5",
                              "--count", "17", "--shift-seed", "1"])
        assert len(set(tried)) == len(tried)
        assert tried == [1, 2, 3, 4]
        assert "# shift_applied: 4" in out

    def test_file_net_round_trip(self, runner, tmp_path):
        gen = sobol_generators(2, 4)
        p = tmp_path / "net.txt"
        p.write_text(format_generator_file(gen))
        out = run_ok(runner, ["gen", "--net", f"file:{p}"])
        assert len(data_rows(out)) == 16


class TestCertify:
    def test_vdc_json(self, runner):
        out = run_ok(runner, ["certify", "--net", "van-der-corput", "--s", "6"])
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["deficiency"] == 0
        assert row["exhaustive"] is True
        assert row["box_counts_ok"] is True

    def test_sobol_positive_deficiency(self, runner):
        out = run_ok(runner, ["certify", "--net", "sobol", "--n", "4", "--s", "5"])
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["deficiency"] >= 1

    def test_csv_format(self, runner):
        out = run_ok(runner, ["certify", "--net", "van-der-corput", "--s", "4",
                              "--format", "csv"])
        assert "deficiency" in out.splitlines()[4]

    def test_malformed_file_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a net\n")
        result = runner.invoke(main, ["certify", "--net", f"file:{bad}", "--s", "3"])
        assert result.exit_code == 2

    def test_exact_without_dual_enumeration(self, runner):
        # The dual has 2^40 elements; the rank conditions still give t exactly.
        out = run_ok(runner, ["certify", "--net", "sobol", "--n", "6", "--s", "8"])
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert "cap" not in doc["config"]
        assert (row["deficiency"], row["dual_rt_weight"]) == (4, 5)
        assert row["exhaustive"] is True
        assert row["box_counts_ok"] is True


class TestVerify:
    def test_single_net_passes(self, runner):
        out = run_ok(runner, ["verify", "--net", "sobol", "--n", "3", "--s", "3"])
        assert "poisson-summation,True" in out
        assert "route-equivalence,True" in out

    def test_default_bundle_passes(self, runner):
        out = run_ok(runner, ["verify"])
        assert out.count("route-equivalence,True") == 3
        assert "interval-coefficient-closed-form,True" in out
        assert "interval-coefficient-square-norm,True" in out
        # Case counts of the planar builtin at s = 2, 3, 4: the 2^(2s) grid
        # for Poisson and for route equivalence, the 2^(2s+4) gap grid, and
        # the grid once per nonzero leading-digit group.
        want = [("interval-coefficient-closed-form", 16448),
                ("interval-coefficient-square-norm", 64)]
        for counts in ((16, 16, 256, 48), (64, 64, 1024, 384),
                       (256, 256, 4096, 2560)):
            want += zip(("poisson-summation", "route-equivalence",
                         "approximation-gap", "delta-identities"), counts)
        assert data_rows(out) == [f"{name},True,{k}," for name, k in want]

    def test_failure_exit_code(self, runner, monkeypatch):
        import dyadnet.cli as cli_mod

        def fake_suite(ctx):
            return [IdentityResult("poisson-summation", False, 1,
                                   witness={"L": (1, 0)})]

        monkeypatch.setattr(cli_mod, "run_net_suite", fake_suite)
        result = runner.invoke(main, ["verify", "--net", "van-der-corput", "--s", "2"])
        assert result.exit_code == 3
        assert "poisson-summation,False" in result.output
        assert '"L": [1, 0]' in result.output
    def test_file_net_uses_its_own_shape(self, runner, tmp_path):
        gen = sobol_generators(3, 4)
        p = tmp_path / "net.txt"
        p.write_text(format_generator_file(gen))
        out = run_ok(runner, ["verify", "--net", f"file:{p}"])
        assert "route-equivalence,True" in out



class TestNorms:
    def test_output_columns(self, runner):
        out = run_ok(runner, ["norms", "--net", "van-der-corput", "--s", "3",
                              "--samples", "2000", "--q-grid", "1,2"])
        header = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header == "target,q,estimate,stderr,samples,normalized_ratio"
        assert "# m_l2_exact" in out

    def test_trivial_distribution_norms_vanish(self, runner):
        out = run_ok(runner, ["norms", "--net", "sobol", "--n", "1", "--s", "4",
                              "--target", "m", "--samples", "2000"])
        for row in data_rows(out):
            cells = row.split(",")
            assert float(cells[2]) == 0.0

    def test_oracle_within_three_sigma(self, runner):
        out = run_ok(runner, ["norms", "--net", "van-der-corput", "--s", "3",
                              "--target", "m", "--samples", "40000",
                              "--q-grid", "2", "--format", "json"])
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        exact = doc["extras"]["m_l2_exact"]
        assert abs(row["estimate"] - exact) <= 3 * row["stderr"]

    def test_m_target_above_the_dual_cap(self, runner):
        # The dual of this net has 2^40 elements; M and its oracle stay on the net.
        out = run_ok(runner, ["norms", "--net", "sobol", "--n", "5", "--s", "10",
                              "--target", "m", "--samples", "4096", "--q-grid", "2"])
        assert "# m_l2_exact" in out
        assert len(data_rows(out)) == 1


class TestSweep:
    def test_deterministic_rerun(self, runner, tmp_path):
        args = ["sweep", "--net", "van-der-corput", "--s-min", "3", "--s-max", "4",
                "--shifts", "2", "--samples", "2000", "--seed", "3"]
        run_ok(runner, args + ["--out", str(tmp_path / "a.csv")])
        run_ok(runner, args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_single_resolution_block(self, runner):
        out = run_ok(runner, ["sweep", "--net", "van-der-corput", "--s", "4",
                              "--shifts", "2", "--samples", "1000",
                              "--q-grid", "2"])
        rows = data_rows(out)
        kinds = {r.split(",")[0] for r in rows}
        assert kinds == {"dn", "summary-min", "summary-median", "summary-max"}
        assert all(r.split(",")[1] == "4" for r in rows)

    def test_no_summary_for_single_shift(self, runner):
        out = run_ok(runner, ["sweep", "--net", "van-der-corput", "--s", "3",
                              "--shifts", "1", "--samples", "1000", "--q-grid", "2"])
        assert "summary" not in out

    def test_bad_range(self, runner):
        result = runner.invoke(main, ["sweep", "--net", "van-der-corput",
                                      "--s-min", "5", "--s-max", "3"])
        assert result.exit_code == 2


class TestOptions:
    @pytest.mark.parametrize("command, flag", [("norms", "--samples"),
                                               ("sweep", "--samples"),
                                               ("sweep", "--shifts")])
    def test_zero_count_is_input_error(self, runner, command, flag):
        result = runner.invoke(main, [command, "--net", "van-der-corput", "--s", "3",
                                      flag, "0"])
        assert result.exit_code == 2
        assert flag in result.output

    @pytest.mark.parametrize("command", ["norms", "sweep"])
    def test_workers_is_not_an_option(self, runner, command):
        result = runner.invoke(main, [command, "--net", "van-der-corput", "--s", "3",
                                      "--workers", "2"])
        assert result.exit_code == 2
        assert "--workers" in result.output

    def test_readme_lists_every_option(self):
        options = set()
        for param in [*main.params, *(p for c in main.commands.values() for p in c.params)]:
            if isinstance(param, click.Option):
                options.update(param.opts + param.secondary_opts)
        options -= {"--help", "--version"}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
        assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == options
