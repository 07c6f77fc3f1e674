import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from gbjtest import cli

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# frozen from a Monte Carlo validated run (4e6 draws per method) on the
# d = 10, rho = 0.3 exchangeable golden set
GOLDEN_EXPECTED = {
    "GBJ": (5.081507644783187, 0.004418897768912828, "1"),
    "BJ": (5.57563774092866, 0.02288466415416114, "1"),
    "HC": (678.4185354220273, 0.0015803375072927085, "1"),
    "GHC": (658.9748728497926, 0.0015701890881420289, "1"),
    "MinP": (3.7961, 0.0014476444546419763, "NA"),
    "SKAT": (33.02689765, 0.007885848682005973, "NA"),
}

# ``test --methods gbj,bj,hc,ghc,minp,skat`` on the golden set, as printed
# when each boundary method took its own ``crossing.pvalue`` call
GOLDEN_TSV = ("method\tstatistic\tpvalue\tachieving_index\tflags\n"
              "GBJ\t5.081507645\t0.0044189\t1\t-\n"
              "BJ\t5.575637741\t0.0228847\t1\t-\n"
              "HC\t678.4185354\t0.00158034\t1\t-\n"
              "GHC\t658.9748728\t0.00157019\t1\t-\n"
              "MinP\t3.7961\t0.00144764\tNA\t-\n"
              "SKAT\t33.02689765\t0.00788585\tNA\t-\n")


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture
def toy_dataset(tmp_path):
    geno = write(tmp_path / "geno.tsv",
                 "a\tb\tc\n" + "\n".join(
                     "\t".join(str(v) for v in row) for row in
                     [(0, 1, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1),
                      (1, 1, 2), (2, 0, 0), (1, 2, 1), (0, 0, 2)]) + "\n")
    pheno = write(tmp_path / "pheno.txt",
                  "\n".join(str(v) for v in
                            [0.2, -0.1, 1.3, 0.4, 0.9, -0.5, 1.8, 0.3]) + "\n")
    return geno, pheno


class TestScoreCommand:
    def test_matches_hand_computation_byte_for_byte(self, toy_dataset, tmp_path):
        geno, pheno = toy_dataset
        out = str(tmp_path / "run")
        rc = cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                       "--family", "gaussian", "--out", out])
        assert rc == 0
        g = np.array([[0, 1, 1], [1, 0, 2], [2, 1, 0], [0, 2, 1],
                      [1, 1, 2], [2, 0, 0], [1, 2, 1], [0, 0, 2]], dtype=float)
        y = np.array([0.2, -0.1, 1.3, 0.4, 0.9, -0.5, 1.8, 0.3])
        sig2 = ((y - y.mean()) ** 2).sum() / 7
        lines = ["snp_id\tz"]
        for name, col in zip("abc", g.T):
            gc = col - col.mean()
            z = col @ (y - y.mean()) / math.sqrt(sig2 * (gc @ gc))
            lines.append(f"{name}\t{z:.10g}")
        expected = "\n".join(lines) + "\n"
        with open(out + ".zstats.tsv") as fh:
            assert fh.read() == expected
        assert os.path.exists(out + ".cor.tsv")
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "score"
        assert manifest["seed"] is None

    def test_duplicate_columns_unit_correlation(self, tmp_path):
        rows = [(0, 0), (1, 1), (2, 2), (0, 0), (1, 1), (2, 2), (1, 1), (0, 0)]
        geno = write(tmp_path / "g.tsv",
                     "a\tb\n" + "\n".join(f"{r[0]}\t{r[1]}" for r in rows) + "\n")
        pheno = write(tmp_path / "y.txt", "\n".join("01230123") + "\n")
        out = str(tmp_path / "dup")
        assert cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                        "--out", out]) == 0
        cor = np.loadtxt(out + ".cor.tsv")
        assert cor[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_missing_file_usage_error(self, toy_dataset, tmp_path):
        geno, _ = toy_dataset
        rc = cli.main(["score", "--genotypes", geno, "--phenotype",
                       str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_missing_covariate_file_usage_error(self, toy_dataset, tmp_path):
        geno, pheno = toy_dataset
        rc = cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                       "--covariates", str(tmp_path / "absent.tsv"),
                       "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_dimension_mismatch_usage_error(self, toy_dataset, tmp_path):
        geno, _ = toy_dataset
        pheno = write(tmp_path / "short.txt", "1.0\n2.0\n")
        rc = cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                       "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_missing_out_usage_error(self, toy_dataset):
        # score writes <out>.zstats.tsv and <out>.cor.tsv, so --out is required
        import gbjtest
        geno, pheno = toy_dataset
        src = os.path.dirname(os.path.dirname(os.path.abspath(gbjtest.__file__)))
        run = subprocess.run([sys.executable, "-m", "gbjtest.cli", "score",
                              "--genotypes", geno, "--phenotype", pheno],
                             capture_output=True, text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 2
        assert "--out" in run.stderr
        assert "Traceback" not in run.stderr

    def test_covariate_span_column_dropped_and_reported(self, toy_dataset, tmp_path):
        geno, pheno = toy_dataset
        covs = write(tmp_path / "covs.tsv",
                     "bcopy\n" + "\n".join("10121020") + "\n")   # column b
        out = str(tmp_path / "span")
        assert cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                        "--covariates", covs, "--out", out]) == 0
        from gbjtest import fileio
        ids, _ = fileio.read_zstats(out + ".zstats.tsv")
        assert ids == ("a", "c")
        assert np.loadtxt(out + ".cor.tsv").shape == (2, 2)
        with open(out + ".manifest.json") as fh:
            assert "dropped_columns=b" in json.load(fh)["warnings"]

    def test_binomial_family_end_to_end(self, tmp_path, rng):
        n, d = 60, 3
        g = (rng.uniform(size=(n, d)) < 0.3).astype(int) + (rng.uniform(size=(n, d)) < 0.3)
        geno = write(tmp_path / "g.tsv", "a\tb\tc\n" +
                     "\n".join("\t".join(map(str, r)) for r in g) + "\n")
        y = (rng.uniform(size=n) < 0.4).astype(int)
        pheno = write(tmp_path / "y.txt", "\n".join(map(str, y)) + "\n")
        out = str(tmp_path / "bin")
        assert cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                        "--family", "binomial", "--out", out]) == 0
        from gbjtest import fileio
        ids, z = fileio.read_zstats(out + ".zstats.tsv")
        assert ids == ("a", "b", "c")
        assert np.all(np.isfinite(z))
        cor = np.loadtxt(out + ".cor.tsv")
        assert np.allclose(np.diag(cor), 1.0)

    def test_missing_genotypes_imputed_and_flagged(self, tmp_path):
        geno = write(tmp_path / "g.tsv",
                     "a\tb\n0\t1\nNA\t0\n2\t1\n1\t-1\n0\t2\n1\t1\n2\t0\n1\t2\n")
        pheno = write(tmp_path / "y.txt",
                      "\n".join(str(v) for v in np.linspace(-1, 1, 8)) + "\n")
        out = str(tmp_path / "imp")
        assert cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                        "--out", out]) == 0
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert any("mean_imputed" in w for w in manifest["warnings"])

    def test_non_finite_covariate_usage_error(self, toy_dataset, tmp_path, capsys):
        # a nan covariate used to end in a LinAlgError traceback and exit 1
        geno, pheno = toy_dataset
        covs = write(tmp_path / "covs.tsv", "age\n" + "\n".join("1234n678")
                     .replace("n", "nan") + "\n")
        rc = cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                       "--covariates", covs, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {covs}:6: not a finite number: 'nan'\n"

    def test_constant_binomial_outcome_usage_error(self, toy_dataset, tmp_path, capsys):
        geno, _ = toy_dataset
        pheno = write(tmp_path / "y.txt", "0\n" * 8)
        rc = cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                       "--family", "binomial", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: binomial outcome is constant")


    def test_quasi_separated_binomial_outcome_usage_error(self, tmp_path, rng, capsys):
        # y = 0 wherever the covariate is 1: the null fit has no finite MLE
        n = 40
        x = (np.arange(n) < 10).astype(int)
        y = np.where(x == 1, 0, np.arange(n) % 2)
        g = (rng.uniform(size=(n, 2)) < 0.3).astype(int) + (rng.uniform(size=(n, 2)) < 0.3)
        geno = write(tmp_path / "g.tsv", "a\tb\n" +
                     "\n".join("\t".join(map(str, r)) for r in g) + "\n")
        pheno = write(tmp_path / "y.txt", "\n".join(map(str, y)) + "\n")
        covs = write(tmp_path / "covs.tsv", "x\n" + "\n".join(map(str, x)) + "\n")
        rc = cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                       "--covariates", covs, "--family", "binomial",
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: null model fit did not converge; "
                                           "refusing to score\n")

class TestCovRefCommand:
    def test_m0_sample_correlation(self, tmp_path, rng):
        g = (rng.uniform(size=(50, 3)) < 0.4).astype(int) + (rng.uniform(size=(50, 3)) < 0.4)
        geno = write(tmp_path / "panel.tsv",
                     "a\tb\tc\n" + "\n".join("\t".join(map(str, r)) for r in g) + "\n")
        out = str(tmp_path / "cor.tsv")
        assert cli.main(["cov-ref", "--panel", geno, "--num-pcs", "0",
                        "--out", out]) == 0
        got = np.loadtxt(out)
        np.testing.assert_allclose(got, np.corrcoef(g.astype(float), rowvar=False),
                                   atol=1e-9)

    def test_empty_panel_parse_error(self, tmp_path):
        geno = write(tmp_path / "empty.tsv", "")
        assert cli.main(["cov-ref", "--panel", geno,
                        "--out", str(tmp_path / "o")]) == 2

    def test_too_many_pcs_usage_error(self, tmp_path, rng):
        g = (rng.uniform(size=(5, 3)) < 0.5).astype(int)
        geno = write(tmp_path / "p.tsv",
                     "a\tb\tc\n" + "\n".join("\t".join(map(str, r)) for r in g) + "\n")
        assert cli.main(["cov-ref", "--panel", geno, "--num-pcs", "7",
                        "--out", str(tmp_path / "o")]) == 2

    def test_planted_pcs_match_library_oracle(self, tmp_path, rng):
        from gbjtest import scores
        n, d = 120, 4
        F = rng.standard_normal((n, 2))
        vals = np.round(F @ rng.standard_normal((2, d)) + rng.standard_normal((n, d)), 6)
        geno = write(tmp_path / "panel.tsv",
                     "\t".join(f"s{j}" for j in range(d)) + "\n" +
                     "\n".join("\t".join(f"{v:.6f}" for v in row) for row in vals) + "\n")
        out = str(tmp_path / "cor.tsv")
        assert cli.main(["cov-ref", "--panel", geno, "--num-pcs", "2",
                        "--out", out]) == 0
        got = np.loadtxt(out)
        want = scores.ref_panel_cov(
            scores.GenotypeMatrix(values=vals, ids=tuple(f"s{j}" for j in range(d))), m=2)
        np.testing.assert_allclose(got, want, atol=1e-8)


class TestTestCommand:
    def test_golden_fixture(self, tmp_path):
        out = str(tmp_path / "res.tsv")
        rc = cli.main(["test", "--zstats", os.path.join(FIXTURES, "golden_zstats.tsv"),
                       "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                       "--methods", "gbj,bj,hc,ghc,minp,skat", "--out", out])
        assert rc == 0
        with open(out) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "method\tstatistic\tpvalue\tachieving_index\tflags"
        for line in lines[1:]:
            method, stat, pval, idx, _ = line.split("\t")
            want_stat, want_p, want_idx = GOLDEN_EXPECTED[method]
            assert float(stat) == pytest.approx(want_stat, abs=1e-6)
            assert float(pval) == pytest.approx(want_p, abs=1e-6)
            assert idx == want_idx

    def test_golden_fixture_tsv_is_unchanged(self, tmp_path):
        # every boundary method from one pass prints what a call per method
        # printed, byte for byte
        out = str(tmp_path / "res.tsv")
        assert cli.main(["test", "--zstats", os.path.join(FIXTURES, "golden_zstats.tsv"),
                         "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                         "--methods", "gbj,bj,hc,ghc,minp,skat", "--out", out]) == 0
        with open(out) as fh:
            assert fh.read() == GOLDEN_TSV

    def test_omnibus_output_matches_its_fixture(self, tmp_path):
        # every method, the omnibus included, prints its frozen output byte
        # for byte
        out = str(tmp_path / "res.tsv")
        assert cli.main(["test", "--zstats", os.path.join(FIXTURES, "golden_zstats.tsv"),
                         "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                         "--methods", "gbj,bj,hc,ghc,minp,skat,omni", "--seed", "1",
                         "--bootstrap-reps", "20", "--out", out]) == 0
        with open(out) as fh, open(os.path.join(FIXTURES, "golden_test_omni.tsv")) as want:
            assert fh.read() == want.read()

    @pytest.mark.parametrize("methods, named", [("ghc,gbj", "GHC"), ("gbj,ghc", "GBJ"),
                                                ("minp,skat,gbj,ghc", "GBJ")])
    def test_d1_error_names_the_first_failing_method(self, methods, named, tmp_path, capsys):
        zf = write(tmp_path / "z.tsv", "snp_id\tz\ns1\t2.0\n")
        cf = write(tmp_path / "c.tsv", "1\n")
        assert cli.main(["test", "--zstats", zf, "--correlation", cf,
                         "--methods", methods, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (f"error: {named} requires d >= 2; "
                                           "only MinP is defined at d=1\n")

    def test_default_methods_on_a_set_in_perfect_ld(self, tmp_path):
        zf = write(tmp_path / "z.tsv", "snp_id\tz\ns1\t2.5\ns2\t2.5\n")
        cf = write(tmp_path / "c.tsv", "1\t1\n1\t1\n")
        out = str(tmp_path / "r.tsv")
        assert cli.main(["test", "--zstats", zf, "--correlation", cf, "--out", out]) == 0
        with open(out) as fh:
            rows = [ln.split("\t") for ln in fh.read().strip().split("\n")[1:]]
        assert rows[-1][0] == "OMNI" and 0.0 < float(rows[-1][2]) < 1.0

    def test_identity_gbj_equals_bj(self, tmp_path, rng):
        d = 8
        z = rng.standard_normal(d) * 1.7
        zf = write(tmp_path / "z.tsv", "snp_id\tz\n" +
                   "\n".join(f"s{i}\t{v:.10g}" for i, v in enumerate(z)) + "\n")
        cf = write(tmp_path / "c.tsv", "\n".join(
            "\t".join("1" if i == j else "0" for j in range(d)) for i in range(d)) + "\n")
        out = str(tmp_path / "r.tsv")
        assert cli.main(["test", "--zstats", zf, "--correlation", cf,
                        "--methods", "gbj,bj", "--out", out]) == 0
        rows = [ln.split("\t") for ln in open(out).read().strip().split("\n")[1:]]
        assert abs(float(rows[0][2]) - float(rows[1][2])) < 1e-8

    def test_d1_supremum_method_degenerate(self, tmp_path):
        zf = write(tmp_path / "z.tsv", "snp_id\tz\ns1\t2.0\n")
        cf = write(tmp_path / "c.tsv", "1\n")
        rc = cli.main(["test", "--zstats", zf, "--correlation", cf,
                       "--methods", "gbj", "--out", str(tmp_path / "r")])
        assert rc == 2

    def test_dimension_mismatch(self, tmp_path):
        zf = write(tmp_path / "z.tsv", "snp_id\tz\ns1\t2.0\ns2\t1.0\n")
        cf = write(tmp_path / "c.tsv", "1\n")
        rc = cli.main(["test", "--zstats", zf, "--correlation", cf,
                       "--methods", "minp", "--out", str(tmp_path / "r")])
        assert rc == 2

    def test_ragged_correlation_parse_error(self, tmp_path, capsys):
        zf = write(tmp_path / "z.tsv", "snp_id\tz\ns1\t2.0\ns2\t1.0\n")
        cf = write(tmp_path / "c.tsv", "1\t0.5\n0.5\n")
        rc = cli.main(["test", "--zstats", zf, "--correlation", cf,
                       "--methods", "minp", "--out", str(tmp_path / "r")])
        assert rc == 2
        assert f"{cf}:2: expected 2 fields, got 1" in capsys.readouterr().err

    def test_non_utf8_input_usage_error(self, tmp_path, capsys):
        zf = tmp_path / "z.tsv"
        zf.write_bytes(b"\xffsnp_id\tz\ns1\t2.0\n")
        rc = cli.main(["test", "--zstats", str(zf),
                       "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                       "--methods", "minp", "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {zf}: cannot read")

    @pytest.mark.parametrize("flag", ["--out", "--manifest"])
    def test_unwritable_output_usage_error(self, flag, tmp_path, capsys):
        args = ["test", "--zstats", os.path.join(FIXTURES, "golden_zstats.tsv"),
                "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                "--methods", "minp", "--out", str(tmp_path / "r.tsv")]
        args += [flag, str(tmp_path / "absent" / "x")]
        assert cli.main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_omni_row_reports_bootstrap(self, tmp_path):
        out = str(tmp_path / "res.tsv")
        rc = cli.main(["test", "--zstats", os.path.join(FIXTURES, "golden_zstats.tsv"),
                       "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                       "--methods", "omni", "--seed", "3",
                       "--bootstrap-reps", "40", "--out", out])
        assert rc == 0
        row = open(out).read().strip().split("\n")[1].split("\t")
        assert row[0] == "OMNI"
        assert "bootstrap_reps=40" in row[4]
        assert 0.0 < float(row[2]) <= 1.0

    @pytest.mark.parametrize("methods, seed", [("omni", 0), ("gbj,minp", None)])
    def test_manifest_records_the_seed_drawn_with(self, methods, seed, tmp_path):
        # without --seed the omnibus bootstrap draws with seed 0; runs that
        # draw nothing record none
        out = str(tmp_path / "res.tsv")
        assert cli.main(["test", "--zstats", os.path.join(FIXTURES, "golden_zstats.tsv"),
                         "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                         "--methods", methods, "--bootstrap-reps", "20", "--out", out]) == 0
        assert json.load(open(out + ".manifest.json"))["seed"] == seed


    def test_negative_seed_usage_error(self, tmp_path, capsys):
        args = ["test", "--zstats", os.path.join(FIXTURES, "golden_zstats.tsv"),
                "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                "--methods", "omni", "--seed", "-3", "--bootstrap-reps", "20",
                "--out", str(tmp_path / "r.tsv")]
        assert cli.main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: bootstrap seed must be >= 0, got -3"]

class TestRegionCommand:
    def test_boundary_rescored_as_data_recovers_alpha(self, tmp_path):
        # scoring the boundary itself as observed data lands on p = alpha
        d, alpha = 12, 0.01
        rho = 0.2
        corr_rows = [["1" if i == j else str(rho) for j in range(d)] for i in range(d)]
        cf = write(tmp_path / "c.tsv", "\n".join("\t".join(r) for r in corr_rows) + "\n")
        region_out = str(tmp_path / "region.tsv")
        assert cli.main(["region", "--method", "gbj", "--alpha", str(alpha),
                        "--correlation", cf, "--out", region_out]) == 0
        bounds = []
        for line in open(region_out).read().strip().split("\n")[1:]:
            bounds.append(float(line.split("\t")[1]) if line.split("\t")[1] != "inf"
                          else np.inf)
        z = np.array(bounds)
        first_finite = np.min(z[np.isfinite(z)])
        z[~np.isfinite(z)] = np.linspace(0.01, first_finite * 0.9,
                                         np.count_nonzero(~np.isfinite(z)))
        zf = write(tmp_path / "z.tsv", "snp_id\tz\n" +
                   "\n".join(f"s{i}\t{v:.10g}" for i, v in enumerate(z)) + "\n")
        res_out = str(tmp_path / "res.tsv")
        assert cli.main(["test", "--zstats", zf, "--correlation", cf,
                        "--methods", "gbj", "--out", res_out]) == 0
        p = float(open(res_out).read().strip().split("\n")[1].split("\t")[2])
        assert p == pytest.approx(alpha, abs=1e-4)

    def test_minp_identity_closed_form(self, tmp_path):
        d, alpha = 20, 0.01
        cf = write(tmp_path / "c.tsv", "\n".join(
            "\t".join("1" if i == j else "0" for j in range(d)) for i in range(d)) + "\n")
        out = str(tmp_path / "region.tsv")
        assert cli.main(["region", "--method", "minp", "--alpha", str(alpha),
                        "--correlation", cf, "--out", out]) == 0
        lines = open(out).read().strip().split("\n")
        assert lines[1].split("\t")[1] == "inf"
        per = 1 - (1 - alpha) ** (1 / d)
        want = ndtri(1 - per / 2)
        assert float(lines[-1].split("\t")[1]) == pytest.approx(want, abs=1e-4)

    def test_ghc_region_matches_its_fixture(self, tmp_path):
        # the region prints its frozen output byte for byte
        out = str(tmp_path / "region.tsv")
        assert cli.main(["region", "--method", "ghc", "--alpha", "0.01",
                         "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                         "--out", out]) == 0
        with open(out) as fh, open(os.path.join(FIXTURES, "golden_region_ghc.tsv")) as want:
            assert fh.read() == want.read()

    @pytest.mark.parametrize("method", ["skat", "omni"])
    def test_non_boundary_method_rejected(self, method, tmp_path, capsys):
        assert cli.main(["region", "--method", method, "--alpha", "0.01",
                         "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                         "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: region applies to the boundary methods (gbj, bj, hc, ghc, minp)"]

    def test_unreachable_alpha_numerical_failure(self, tmp_path):
        d = 6
        cf = write(tmp_path / "c.tsv", "\n".join(
            "\t".join("1" if i == j else "0" for j in range(d)) for i in range(d)) + "\n")
        rc = cli.main(["region", "--method", "gbj", "--alpha", "0.95",
                       "--correlation", cf, "--out", str(tmp_path / "r")])
        assert rc == 3


    def test_one_method_only(self, tmp_path, capsys):
        out = str(tmp_path / "region.tsv")
        assert cli.main(["region", "--method", "gbj,ghc", "--alpha", "0.01",
                         "--correlation", os.path.join(FIXTURES, "golden_cor.tsv"),
                         "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: region takes one method, got GBJ,GHC"]
        assert not os.path.exists(out)

class TestSimulateCommand:
    def test_deterministic_and_config_file(self, tmp_path):
        cfg = write(tmp_path / "study.cfg",
                    "d=6\nk=0\nrho3=0.2\nnoise_corr_fraction=1.0\nn=300\n"
                    "reps=200\nalpha=0.05\nseed=9\nmethods=minp,skat\n")
        out1, out2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        assert cli.main(["simulate", "--mode", "size", "--config", cfg,
                        "--out", out1]) == 0
        assert cli.main(["simulate", "--mode", "size", "--config", cfg,
                        "--out", out2]) == 0
        assert open(out1).read() == open(out2).read()

    def test_flag_overrides_and_manifest(self, tmp_path):
        out = str(tmp_path / "t.tsv")
        mf = str(tmp_path / "m.json")
        assert cli.main(["simulate", "--mode", "size", "--d", "5", "--k", "0",
                        "--n", "250", "--reps", "100", "--alpha", "0.1",
                        "--seed", "4", "--methods", "minp", "--out", out,
                        "--manifest", mf]) == 0
        manifest = json.load(open(mf))
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 4
        table = open(out).read().strip().split("\n")
        assert table[1].split("\t")[0] == "MinP"

    def test_bad_config_value_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "study.cfg", "# study\nn=300\n\nd=abc\n")
        assert cli.main(["simulate", "--mode", "size", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:4: d:" in err and "'abc'" in err

    def test_unknown_config_key_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "study.cfg", "n=300\nrhoo3=0.4\n")
        assert cli.main(["simulate", "--mode", "size", "--config", cfg]) == 2
        assert f"{cfg}:2: unknown setting 'rhoo3'" in capsys.readouterr().err

    def test_missing_config_file_usage_error(self, tmp_path, capsys):
        cfg = str(tmp_path / "absent.cfg")
        assert cli.main(["simulate", "--mode", "size", "--config", cfg]) == 2
        assert cfg in capsys.readouterr().err


    @pytest.mark.parametrize("flags, message", [
        (["--mode", "size", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["--mode", "power", "--k", "2", "--beta", "nan"], "beta must be finite, got nan"),
        (["--mode", "power", "--k", "2", "--beta", "inf"], "beta must be finite, got inf"),
        (["--mode", "size", "--n", "-5"], "n must be >= 2 subjects, got -5"),
        (["--mode", "size", "--n", "1"], "n must be >= 2 subjects, got 1"),
    ], ids=["negative-seed", "nan-beta", "inf-beta", "negative-n", "one-subject"])
    def test_bad_setting_usage_error(self, flags, message, tmp_path, capsys):
        out = str(tmp_path / "t.tsv")
        assert cli.main(["simulate", *flags, "--reps", "10", "--methods", "gbj,skat",
                         "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not os.path.exists(out)

def test_score_then_test_pipeline_detects_planted_signal(tmp_path, rng):
    # end to end: simulate data with one strong causal column, score it from
    # files, then test the resulting summary statistics
    n, d = 800, 6
    g = (rng.uniform(size=(n, d)) < 0.3).astype(float) + (rng.uniform(size=(n, d)) < 0.3)
    y = 0.35 * g[:, 0] + rng.standard_normal(n)
    geno = write(tmp_path / "g.tsv",
                 "\t".join(f"s{j}" for j in range(d)) + "\n" +
                 "\n".join("\t".join(f"{v:g}" for v in row) for row in g) + "\n")
    pheno = write(tmp_path / "y.txt", "\n".join(f"{v:.8f}" for v in y) + "\n")
    prefix = str(tmp_path / "run")
    assert cli.main(["score", "--genotypes", geno, "--phenotype", pheno,
                    "--out", prefix]) == 0
    out = str(tmp_path / "res.tsv")
    assert cli.main(["test", "--zstats", prefix + ".zstats.tsv",
                    "--correlation", prefix + ".cor.tsv",
                    "--methods", "gbj,minp,skat", "--out", out]) == 0
    rows = {ln.split("\t")[0]: ln.split("\t") for ln
            in open(out).read().strip().split("\n")[1:]}
    for method in ("GBJ", "MinP", "SKAT"):
        assert float(rows[method][2]) < 0.01


def test_stdout_carries_data_only(tmp_path, capsys):
    zf = write(tmp_path / "z.tsv", "snp_id\tz\ns1\t2.0\ns2\t1.0\ns3\t0.5\n")
    cf = write(tmp_path / "c.tsv",
               "1\t0\t0\n0\t1\t0\n0\t0\t1\n")
    rc = cli.main(["test", "--zstats", zf, "--correlation", cf,
                   "--methods", "minp,skat"])
    assert rc == 0
    captured = capsys.readouterr()
    # stdout is the TSV alone; the manifest lands on stderr
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("method\t")
    assert all("\t" in ln for ln in lines)
    assert '"command": "test"' in captured.err


def test_unknown_method_rejected(tmp_path):
    zf = write(tmp_path / "z.tsv", "snp_id\tz\ns1\t2.0\ns2\t1.0\n")
    cf = write(tmp_path / "c.tsv", "1\t0\n0\t1\n")
    rc = cli.main(["test", "--zstats", zf, "--correlation", cf,
                   "--methods", "banana", "--out", str(tmp_path / "r")])
    assert rc == 2


@pytest.mark.parametrize("command", ["test", "simulate"])
def test_repeated_method_rejected(command, tmp_path, capsys):
    # a repeated method would write its row twice, and a study would count
    # its rejections twice
    zf = write(tmp_path / "z.tsv", "snp_id\tz\ns1\t2.0\ns2\t1.0\n")
    cf = write(tmp_path / "c.tsv", "1\t0\n0\t1\n")
    args = {"test": ["--zstats", zf, "--correlation", cf],
            "simulate": ["--mode", "size", "--d", "5", "--n", "200", "--reps", "200",
                         "--alpha", "0.1", "--seed", "3"]}[command]
    out = str(tmp_path / "r.tsv")
    assert cli.main([command, *args, "--methods", "minp,MinP,skat", "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: method 'minp' is listed twice"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["score", "cov-ref", "region"])
def test_seed_only_where_something_is_drawn(command, toy_dataset, tmp_path):
    # score, cov-ref and region draw no random number, so they take no --seed
    geno, pheno = toy_dataset
    args = {"score": ["--genotypes", geno, "--phenotype", pheno],
            "cov-ref": ["--panel", geno],
            "region": ["--method", "gbj", "--alpha", "0.01", "--correlation",
                       os.path.join(FIXTURES, "golden_cor.tsv")]}[command]
    out = str(tmp_path / "o")
    assert cli.main([command, *args, "--seed", "1", "--out", out]) == 2
    mf = str(tmp_path / "m.json")
    assert cli.main([command, *args, "--out", out, "--manifest", mf]) == 0
    assert json.load(open(mf))["seed"] is None
