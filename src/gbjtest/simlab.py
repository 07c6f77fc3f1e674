"""Size and power simulation laboratory.

Replicates the block-correlation designs at desk scale: latent-Gaussian
genotypes, a linear disease model on the causal columns, and per-method
empirical rejection rates.  Genotypes are drawn once per study and outcomes
are redrawn per replicate (the fixed-panel design); since the correlation
estimate of intercept-only gaussian scoring does not involve the outcome,
each method's level-alpha rejection event reduces to a precomputed boundary
crossing, which is what makes 1e5-replicate studies take minutes rather than
days.  Outcomes are drawn ROW_BLOCK subjects at a time and reduced to their
sums over subjects, so a chunk of CHUNK replicates holds ROW_BLOCK x CHUNK
draws, not n x CHUNK.  Everything is a pure function of the study seed.  The
seeded z statistics depend on ROW_BLOCK at rounding level (the order of the
sums); rejection counts do not move unless a replicate sits within rounding
of a boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import crossing, omnibus, setstats
from .errors import DegenerateInputError, DomainError
from .exceedance import CorrelationModel, correlation_model
from .scores import GenotypeMatrix, column_corr

SIZE = "size"
POWER = "power"
DEFAULT_METHODS = (*setstats.ALL_METHODS, omnibus.SKAT, omnibus.OMNI)
CHUNK = 5000  # outcome replicates per RNG stream (seed, 1, chunk); seeded results depend on it
ROW_BLOCK = 100  # subjects per outcome draw: 3.8 MiB at CHUNK replicates


@dataclass(frozen=True)
class BlockStructure:
    """Causal block, correlated-noise block, independent noise.

    The first k columns are causal (pairwise rho1); a ``noise_corr_fraction``
    share of the remaining columns (floored) forms an exchangeable block at
    rho3; causal-noise pairs sit at rho2; all other noise pairs are
    independent.  With all three correlations equal and fraction 1 the matrix
    is fully exchangeable.
    """

    d: int
    k: int
    rho1: float = 0.0
    rho2: float = 0.0
    rho3: float = 0.0
    noise_corr_fraction: float = 0.5

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"set size must be >= 1, got {self.d}")
        if not (0 <= self.k <= self.d):
            raise DomainError(f"causal count must be in 0..{self.d}, got {self.k}")
        for name, r in (("rho1", self.rho1), ("rho2", self.rho2), ("rho3", self.rho3)):
            if not (0.0 <= r < 1.0):
                raise DomainError(f"{name} must be in [0, 1), got {r}")
        if not (0.0 <= self.noise_corr_fraction <= 1.0):
            raise DomainError("noise_corr_fraction must be in [0, 1]")


def block_sigma(structure: BlockStructure) -> np.ndarray:
    """Assemble and PSD-validate the block correlation matrix."""
    return _block_model(structure).matrix


def _block_model(structure: BlockStructure) -> CorrelationModel:
    """The block correlation matrix of ``structure`` as a validated model."""
    d, k = structure.d, structure.k
    n_noise = d - k
    n_corr = int(math.floor(n_noise * structure.noise_corr_fraction))
    S = np.eye(d)
    if k > 1:
        S[:k, :k] = structure.rho1
    if n_corr > 1:
        S[k:k + n_corr, k:k + n_corr] = structure.rho3
    if k and n_noise:
        S[:k, k:] = structure.rho2
        S[k:, :k] = structure.rho2
    np.fill_diagonal(S, 1.0)
    return CorrelationModel(S)


def sim_genotypes(n: int, Sigma_latent: np.ndarray | CorrelationModel, maf: float,
                  seed) -> GenotypeMatrix:
    """Latent-Gaussian genotypes: two independent MVN(0, Sigma) draws per
    subject, thresholded at the (1 - maf) normal quantile and summed.

    Allele frequency is maf in expectation; genotype correlation approximates
    (and attenuates) the latent target.
    """
    if not (0.0 < maf < 0.5):
        raise DomainError(f"maf must be in (0, 0.5), got {maf}")
    Sigma_latent = correlation_model(Sigma_latent).matrix
    d = Sigma_latent.shape[0]
    L = omnibus._safe_cholesky(Sigma_latent)
    rng = np.random.default_rng(seed)
    cut = ndtri(1.0 - maf)
    g = np.zeros((n, d))
    for _ in range(2):
        latent = rng.standard_normal((n, d)) @ L.T
        g += (latent > cut)
    ids = tuple(f"snp{j + 1}" for j in range(d))
    return GenotypeMatrix(values=g, ids=ids)


@dataclass(frozen=True)
class SimConfig:
    structure: BlockStructure
    n: int = 1000
    maf: float = 0.3
    beta: float = 0.0
    alpha: float = 0.01
    reps: int = 1000
    seed: int = 0
    methods: tuple = DEFAULT_METHODS
    bootstrap_reps: int = 100

    def __post_init__(self):
        if self.reps < 1:
            raise DomainError("reps must be >= 1")
        if self.n < 2:
            raise DomainError(f"n must be >= 2 subjects, got {self.n}")
        if not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.maf < 0.5):
            raise DomainError(f"maf must be in (0, 0.5), got {self.maf}")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")
        unknown = [m for m in self.methods if m not in DEFAULT_METHODS]
        if unknown:
            raise DomainError(f"unknown methods {unknown}; choose from {DEFAULT_METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise DomainError(f"each method may be listed once, got {list(self.methods)}")


@dataclass(frozen=True)
class StudyRow:
    method: str
    k: int
    d: int
    rho1: float
    rho2: float
    rho3: float
    beta: float
    alpha: float
    reps: int
    rejections: int
    rate: float
    se: float


@dataclass(frozen=True)
class StudyResult:
    rows: tuple
    diagnostics: tuple


def _component_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def run_study(config: SimConfig, mode: str) -> StudyResult:
    """Empirical rejection rates per method for one design point.

    size mode: Y ~ N(0, 1) independent of the genotypes.
    power mode: Y = sum_j<k beta G_ij + eps with the same eps stream, so a
    power run at beta = 0 reproduces the size run indicator for indicator.
    """
    if mode not in (SIZE, POWER):
        raise DomainError(f"mode must be '{SIZE}' or '{POWER}', got {mode!r}")
    st = config.structure
    d, k, n = st.d, st.k, config.n
    if mode == POWER and k < 1:
        raise DomainError("power mode needs at least one causal column")
    G = sim_genotypes(n, _block_model(st), config.maf, seed=[config.seed, 0])
    Gc = G.values - G.values.mean(axis=0)
    denom2 = np.einsum("ij,ij->j", Gc, Gc)
    colnorm = np.sqrt(denom2)
    if np.any(colnorm <= 0):
        raise DegenerateInputError("simulated genotype column is constant; "
                                   "increase n or adjust maf")
    Sigma_hat = correlation_model(omnibus.repair_correlation(column_corr(Gc, denom2)))

    diagnostics: list[str] = []
    skat_cut = omni_skat_cut = None
    if omnibus.SKAT in config.methods:
        skat_cut = omnibus.skat_threshold(config.alpha, Sigma_hat)
    # the bootstrap draws from its own seed stream, so c* can come first and
    # each method's regions at alpha and at c* share one search
    omni_methods: tuple[str, ...] = ()
    if omnibus.OMNI in config.methods:
        R_hat, dropped = omnibus.bootstrap_corr(
            Sigma_hat, B=config.bootstrap_reps, seed=_component_seed(config.seed, 2))
        if dropped:
            diagnostics.append(f"omnibus_bootstrap_dropped={dropped}")
        c_star = omnibus.omni_threshold(config.alpha, R_hat)
        omni_methods = omnibus.SUPREMUM_COMPONENTS
        omni_skat_cut = omnibus.skat_threshold(c_star, Sigma_hat)
    bound_sets: dict[str, np.ndarray] = {}
    omni_bounds: list[np.ndarray] = []
    own = [m for m in config.methods if m in setstats.ALL_METHODS]
    for method in dict.fromkeys(own + list(omni_methods)):
        alphas = (([config.alpha] if method in own else [])
                  + ([c_star] if method in omni_methods else []))
        regions = crossing.rejection_region(method, np.array(alphas), d, Sigma_hat)
        if method in own:
            bound_sets[method] = regions[0].b
        if method in omni_methods:
            omni_bounds.append(regions[-1].b)

    rejections = {m: 0 for m in config.methods}
    done = 0
    chunk_idx = 0
    colsum = Gc.sum(axis=0)[:, None]
    shift = None
    if mode == POWER and config.beta != 0.0:
        shift = Gc[:, :k].sum(axis=1, keepdims=True) * config.beta
    while done < config.reps:
        m_chunk = min(CHUNK, config.reps - done)
        rng = np.random.default_rng([config.seed, 1, chunk_idx])
        # consecutive row blocks reproduce the values of one (n, m_chunk) draw
        gty = np.zeros((d, m_chunk))
        sy = np.zeros(m_chunk)
        syy = np.zeros(m_chunk)
        for start in range(0, n, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, n)
            y = rng.standard_normal((stop - start, m_chunk))
            if shift is not None:
                y += shift[start:stop]
            gty += Gc[start:stop].T @ y
            sy += y.sum(axis=0)
            syy += np.einsum("ij,ij->j", y, y)
        ybar = sy / n
        phi = (syy - n * ybar * ybar) / (n - 1)
        z = (gty - colsum * ybar) / (colnorm[:, None] * np.sqrt(phi)[None, :])
        sortz = np.sort(np.abs(z), axis=0)
        q = np.einsum("ij,ij->j", z, z)
        for method in config.methods:
            if method == omnibus.SKAT:
                rej = q > skat_cut
            elif method == omnibus.OMNI:
                rej = q > omni_skat_cut
                for b in omni_bounds:
                    rej |= np.any(sortz > b[:, None], axis=0)
            else:
                rej = np.any(sortz > bound_sets[method][:, None], axis=0)
            rejections[method] += int(rej.sum())
        done += m_chunk
        chunk_idx += 1

    rows = []
    for method in config.methods:
        r = rejections[method]
        rate = r / config.reps
        se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / config.reps)
        rows.append(StudyRow(method=method, k=k, d=d, rho1=st.rho1,
                             rho2=st.rho2, rho3=st.rho3, beta=config.beta,
                             alpha=config.alpha, reps=config.reps, rejections=r,
                             rate=rate, se=se))
    return StudyResult(rows=tuple(rows), diagnostics=tuple(diagnostics))


def result_to_tsv(result: StudyResult) -> str:
    header = ("method\tk\td\trho1\trho2\trho3\tbeta\talpha\treps"
              "\trejections\trate\tse")
    lines = [header]
    for r in result.rows:
        lines.append(f"{r.method}\t{r.k}\t{r.d}\t{r.rho1:g}\t{r.rho2:g}"
                     f"\t{r.rho3:g}\t{r.beta:g}\t{r.alpha:g}\t{r.reps}"
                     f"\t{r.rejections}\t{r.rate:.6g}\t{r.se:.6g}")
    return "\n".join(lines) + "\n"
