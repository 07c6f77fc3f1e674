import tracemalloc

import numpy as np
import pytest

from gbjtest import gauss, simlab
from gbjtest.errors import DomainError
from gbjtest.simlab import CHUNK, BlockStructure, SimConfig

# rejection counts of the loop that drew each chunk's outcomes as one
# (n, CHUNK) array; the streamed sums move z at rounding level only
FROZEN_STUDIES = {
    "size": (SimConfig(structure=BlockStructure(d=8, k=0, rho3=0.3), n=500, reps=2000,
                       seed=3, alpha=0.05, bootstrap_reps=20), simlab.SIZE,
             {"GBJ": 94, "BJ": 94, "HC": 99, "GHC": 99, "MinP": 96, "SKAT": 88, "OMNI": 78}),
    "power": (SimConfig(structure=BlockStructure(d=6, k=2, rho1=0.2), n=400, reps=1500,
                        seed=9, alpha=0.05, beta=0.12,
                        methods=("GBJ", "HC", "MinP", "SKAT", "OMNI"), bootstrap_reps=20),
              simlab.POWER, {"GBJ": 548, "HC": 532, "MinP": 509, "SKAT": 584, "OMNI": 540}),
    "n_off_row_block": (SimConfig(structure=BlockStructure(d=5, k=0, rho3=0.4), n=437,
                                  reps=1500, seed=12, alpha=0.1,
                                  methods=("BJ", "GHC", "SKAT")), simlab.SIZE,
                        {"BJ": 150, "GHC": 138, "SKAT": 142}),
    "reps_off_chunk": (SimConfig(structure=BlockStructure(d=5, k=1, rho2=0.1), n=300,
                                 reps=CHUNK + 700, seed=4, alpha=0.01, beta=0.2,
                                 methods=("GBJ", "MinP", "SKAT")), simlab.POWER,
                       {"GBJ": 908, "MinP": 1003, "SKAT": 776}),
}


class TestBlockSigma:
    def test_all_zero_is_identity(self):
        S = simlab.block_sigma(BlockStructure(d=6, k=2))
        np.testing.assert_array_equal(S, np.eye(6))

    def test_causal_block_only(self):
        S = simlab.block_sigma(BlockStructure(d=4, k=2, rho1=0.3))
        want = np.eye(4)
        want[0, 1] = want[1, 0] = 0.3
        np.testing.assert_allclose(S, want)

    def test_fully_exchangeable_variant(self):
        S = simlab.block_sigma(BlockStructure(d=5, k=2, rho1=0.3, rho2=0.3, rho3=0.3,
                                              noise_corr_fraction=1.0))
        want = 0.3 * np.ones((5, 5)) + 0.7 * np.eye(5)
        np.testing.assert_allclose(S, want)

    def test_half_noise_block_floored(self):
        S = simlab.block_sigma(BlockStructure(d=10, k=3, rho3=0.2))
        # noise = 7, correlated block = floor(3.5) = 3 columns after causal
        block = S[3:6, 3:6]
        np.testing.assert_allclose(block - np.eye(3) * 0.8, 0.2 * np.ones((3, 3)))
        assert np.all(S[6:, 6:] == np.eye(4))

    def test_non_psd_named_eigenvalue(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            simlab.block_sigma(BlockStructure(d=30, k=15, rho1=0.05, rho2=0.28,
                                              rho3=0.05))

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            BlockStructure(d=5, k=6)
        with pytest.raises(DomainError):
            BlockStructure(d=5, k=1, rho1=1.0)


class TestSimGenotypes:
    def test_allele_frequency(self):
        G = simlab.sim_genotypes(100_000, np.eye(3), maf=0.3, seed=1)
        freq = G.values.mean(axis=0) / 2.0
        assert np.all(np.abs(freq - 0.3) < 0.005)
        assert set(np.unique(G.values)) <= {0.0, 1.0, 2.0}

    def test_independent_latent_gives_uncorrelated(self):
        G = simlab.sim_genotypes(100_000, np.eye(4), maf=0.3, seed=2)
        C = np.corrcoef(G.values, rowvar=False)
        off = C[np.triu_indices(4, 1)]
        assert np.max(np.abs(off)) < 4 / np.sqrt(100_000) * 2

    def test_latent_correlation_attenuated(self):
        Sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        for seed in (3, 4):
            G = simlab.sim_genotypes(100_000, Sigma, maf=0.3, seed=seed)
            r = np.corrcoef(G.values, rowvar=False)[0, 1]
            assert 0.15 <= r <= 0.3

    def test_deterministic(self):
        a = simlab.sim_genotypes(500, np.eye(2), maf=0.2, seed=9)
        b = simlab.sim_genotypes(500, np.eye(2), maf=0.2, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_maf_domain(self):
        with pytest.raises(DomainError):
            simlab.sim_genotypes(10, np.eye(2), maf=0.7, seed=0)


class TestRunStudy:
    def test_deterministic_tables(self):
        cfg = SimConfig(structure=BlockStructure(d=6, k=0, rho3=0.2), n=400,
                        reps=400, seed=5, alpha=0.05,
                        methods=("GBJ", "MinP", "SKAT"))
        a = simlab.run_study(cfg, simlab.SIZE)
        b = simlab.run_study(cfg, simlab.SIZE)
        assert simlab.result_to_tsv(a) == simlab.result_to_tsv(b)

    def test_power_at_zero_beta_nests_size(self):
        cfg = SimConfig(structure=BlockStructure(d=6, k=2, rho1=0.2), n=400,
                        reps=500, seed=11, alpha=0.05, beta=0.0,
                        methods=("GBJ", "HC", "MinP", "SKAT"))
        size = simlab.run_study(cfg, simlab.SIZE)
        power = simlab.run_study(cfg, simlab.POWER)
        for rs, rp in zip(size.rows, power.rows):
            assert rs.rejections == rp.rejections

    def test_size_within_binomial_window(self):
        reps, alpha = 3000, 0.05
        cfg = SimConfig(structure=BlockStructure(d=8, k=0, rho3=0.15,
                                                 noise_corr_fraction=1.0),
                        n=600, reps=reps, seed=21, alpha=alpha,
                        methods=("GBJ", "BJ", "HC", "GHC", "MinP", "SKAT"))
        res = simlab.run_study(cfg, simlab.SIZE)
        window = 4 * np.sqrt(alpha * (1 - alpha) / reps)
        for row in res.rows:
            assert abs(row.rate - alpha) < window, (row.method, row.rate)

    @pytest.mark.parametrize("name", list(FROZEN_STUDIES))
    def test_rejection_counts_frozen(self, name):
        cfg, mode, want = FROZEN_STUDIES[name]
        res = simlab.run_study(cfg, mode)
        assert {r.method: r.rejections for r in res.rows} == want

    def test_outcome_draws_bound_peak_memory(self):
        # one (n, CHUNK) draw alone would be 76 MiB here
        cfg = SimConfig(structure=BlockStructure(d=5, k=0, rho3=0.2), n=2000, reps=CHUNK,
                        seed=1, methods=("MinP", "SKAT"))
        tracemalloc.start()
        try:
            simlab.run_study(cfg, simlab.SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_power_exceeds_size_with_signal(self):
        st = BlockStructure(d=10, k=2, rho1=0.1)
        base = dict(n=600, reps=400, seed=31, alpha=0.05,
                    methods=("GBJ", "SKAT"))
        null = simlab.run_study(SimConfig(structure=st, beta=0.0, **base), simlab.SIZE)
        alt = simlab.run_study(SimConfig(structure=st, beta=0.25, **base), simlab.POWER)
        for r0, r1 in zip(null.rows, alt.rows):
            assert r1.rate > r0.rate + 0.2

    def test_tsv_format(self):
        cfg = SimConfig(structure=BlockStructure(d=4, k=1, rho1=0.1), n=300,
                        reps=100, seed=2, alpha=0.1, beta=0.2, methods=("MinP",))
        res = simlab.run_study(cfg, simlab.POWER)
        text = simlab.result_to_tsv(res)
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == ["method", "k", "d", "rho1", "rho2",
                                        "rho3", "beta", "alpha", "reps", "rejections",
                                        "rate", "se"]
        fields = lines[1].split("\t")
        assert fields[0] == "MinP"
        assert int(fields[9]) == round(float(fields[10]) * 100)

    def test_latent_block_validated_once(self, monkeypatch):
        cfg = SimConfig(structure=BlockStructure(d=6, k=0, rho3=0.2), n=300,
                        reps=50, seed=5, methods=("MinP",))
        calls = []
        check = gauss.check_correlation

        def counted(M):
            calls.append(np.shape(M))
            return check(M)
        monkeypatch.setattr(gauss, "check_correlation", counted)
        simlab.run_study(cfg, simlab.SIZE)
        # once for the latent block, once for the estimated correlation
        assert calls == [(6, 6), (6, 6)]

    def test_repeated_method_rejected(self):
        # its rejections are keyed by method, so a repeat would count twice
        with pytest.raises(DomainError, match="listed once"):
            SimConfig(structure=BlockStructure(d=4, k=0), reps=10,
                      methods=("MinP", "SKAT", "MinP"))

    def test_mode_validation(self):
        cfg = SimConfig(structure=BlockStructure(d=4, k=0), reps=10, methods=("MinP",))
        with pytest.raises(DomainError):
            simlab.run_study(cfg, "noise")
        with pytest.raises(DomainError):
            simlab.run_study(cfg, simlab.POWER)  # k = 0 cannot carry signal
