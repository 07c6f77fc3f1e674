"""Text-format readers and writers.

Whitespace- or comma-delimited inputs: phenotype (one value per line),
covariates (n rows, optional header), genotypes (header row of SNP ids,
missing entries coded NA or -1, mean-imputed with a flag).  Every number
must be finite; a malformed field is reported with its file line.  Outputs
are TSV with a one-line header; 'inf' and 'NA' are the literals for
infinities and absent values.
"""

from __future__ import annotations

import re
from itertools import compress

import numpy as np

from .errors import DomainError
from .scores import GenotypeMatrix


class ParseError(DomainError):
    """Malformed input file; message carries the offending line number."""


# a genotype field that is exactly NA (any case), bounded by separators
_NA_FIELD = re.compile(r"(?<![^\s,])NA(?![^\s,])", re.IGNORECASE)


def _split(line: str) -> list[str]:
    line = line.strip()
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def _read_lines(path: str) -> list[tuple[int, str]]:
    """The non-blank lines of a file, each with its 1-based line number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1) if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read ({exc})") from exc


def _read_numeric(path: str, lines: list[tuple[int, str]], width: int | None = None
                  ) -> np.ndarray:
    """The numeric rows ``lines`` as a matrix.  Every row must have ``width``
    fields, by default as many as the first, and every field must be a
    finite number."""
    if not lines:
        raise ParseError(f"{path}: no data rows")
    width = width or len(_split(lines[0][1]))
    out = np.empty((len(lines), width))
    for k, (i, ln) in enumerate(lines):
        fields = _split(ln)
        if len(fields) != width:
            raise ParseError(f"{path}:{i}: expected {width} field{'s' * (width > 1)}, "
                             f"got {len(fields)}")
        try:
            out[k] = [float(f) for f in fields]
        except ValueError as exc:       # names the field: could not convert ... 'x'
            raise ParseError(f"{path}:{i}: {exc}") from exc
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        k, j = bad[0]
        raise ParseError(f"{path}:{lines[k][0]}: not a finite number: "
                         f"{_split(lines[k][1])[j]!r}")
    return out


def read_phenotype(path: str) -> np.ndarray:
    """One value per line."""
    return _read_numeric(path, _read_lines(path), width=1)[:, 0]


def _is_numeric_row(fields: list[str]) -> bool:
    try:
        for f in fields:
            float(f)
        return True
    except ValueError:
        return False


def read_covariates(path: str) -> np.ndarray:
    """Covariate matrix; a non-numeric first row is treated as a header."""
    lines = _read_lines(path)
    if lines and not _is_numeric_row(_split(lines[0][1])):
        lines = lines[1:]
    return _read_numeric(path, lines)


def read_genotypes(path: str) -> GenotypeMatrix:
    """Genotype matrix with a mandatory header row of SNP identifiers.

    Missing entries ('NA' or -1) are mean-imputed per column; affected
    columns are reported in ``imputed``.
    """
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ParseError(f"{path}: need a header row plus at least one subject row")
    ids = tuple(_split(lines[0][1]))
    if _is_numeric_row(list(ids)):
        raise ParseError(f"{path}:{lines[0][0]}: first row must be SNP identifiers, found numbers")
    vals = _read_numeric(path, [(i, _NA_FIELD.sub("-1", ln)) for i, ln in lines[1:]],
                         width=len(ids))
    missing = vals == -1.0
    n_missing = missing.sum(axis=0)
    n_kept = vals.shape[0] - n_missing
    if not np.all(n_kept):
        raise ParseError(f"{path}: column {ids[np.argmin(n_kept)]} entirely missing")
    means = np.where(missing, 0.0, vals).sum(axis=0) / n_kept
    return GenotypeMatrix(values=np.where(missing, means, vals), ids=ids,
                          imputed=tuple(compress(ids, n_missing)))


def read_zstats(path: str):
    """TSV of (snp_id, z) with header; returns (ids, z array)."""
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ParseError(f"{path}: need header plus at least one statistic row")
    rows = [(i, _split(ln)) for i, ln in lines[1:]]
    for i, fields in rows:
        if len(fields) != 2:
            raise ParseError(f"{path}:{i}: expected (snp_id, z), got {len(fields)} fields")
    z = _read_numeric(path, [(i, fields[1]) for i, fields in rows], width=1)[:, 0]
    return tuple(fields[0] for _, fields in rows), z


def read_correlation(path: str) -> np.ndarray:
    M = _read_numeric(path, _read_lines(path))
    if M.shape[0] != M.shape[1]:
        raise ParseError(f"{path}: correlation matrix must be square, got {M.shape}")
    return M


def write_zstats(path: str, ids, z: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("snp_id\tz\n")
        for gid, zj in zip(ids, z):
            fh.write(f"{gid}\t{zj:.10g}\n")


def format_correlation(Sigma: np.ndarray) -> str:
    """One tab-separated line per matrix row, entries to 10 significant digits."""
    return "".join("\t".join(f"{v:.10g}" for v in row) + "\n" for row in Sigma)
