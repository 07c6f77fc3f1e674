import pytest

from gbjtest import fileio

# each file has a blank line before its bad value, which sits on file line 4
# (line 3 for the correlation matrix)
BAD_FILES = {
    "phenotype": (fileio.read_phenotype, "1.0\n\n2.0\nabc\n", 4),
    "covariates": (fileio.read_covariates, "age sex\n1 2\n\n3 x\n", 4),
    "genotypes": (fileio.read_genotypes, "rs1 rs2\n0 1\n\n2 q\n", 4),
    "zstats": (fileio.read_zstats, "snp_id\tz\nrs1\t0.5\n\nrs2\tzz\n", 4),
    "correlation": (fileio.read_correlation, "1 0.2\n\n0.2 x\n", 3),
}


@pytest.mark.parametrize("kind", sorted(BAD_FILES))
def test_parse_error_names_the_file_line_past_a_blank_line(kind, tmp_path):
    reader, text, line = BAD_FILES[kind]
    path = tmp_path / "in.txt"
    path.write_text(text)
    with pytest.raises(fileio.ParseError, match=rf"in\.txt:{line}: "):
        reader(str(path))


# a row whose field count differs from the first data row's, on file line 3
RAGGED_FILES = {
    "phenotype": (fileio.read_phenotype, "1.0\n2.0\n3.0 4.0\n", "expected 1 field, got 2"),
    "covariates": (fileio.read_covariates, "age sex\n1 2\n3\n", "expected 2 fields, got 1"),
    "genotypes": (fileio.read_genotypes, "rs1 rs2\n0 1\n2\n", "expected 2 fields, got 1"),
    "correlation": (fileio.read_correlation, "1 0\n0 1\n0\n", "expected 2 fields, got 1"),
}


@pytest.mark.parametrize("kind", sorted(RAGGED_FILES))
def test_field_count_error_names_the_file_line(kind, tmp_path):
    reader, text, message = RAGGED_FILES[kind]
    path = tmp_path / "in.txt"
    path.write_text(text)
    with pytest.raises(fileio.ParseError, match=rf"in\.txt:3: {message}$"):
        reader(str(path))


def test_non_utf8_input_is_a_parse_error(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xff\xfe1.0\n")
    with pytest.raises(fileio.ParseError, match=r"in\.txt: cannot read \(.*utf-8"):
        fileio.read_phenotype(str(path))


# a non-finite number on file line 3 of each numeric reader's input
NON_FINITE_FILES = {
    "phenotype": (fileio.read_phenotype, "1.0\n2.0\n{}\n"),
    "covariates": (fileio.read_covariates, "age sex\n1 2\n3 {}\n"),
    "genotypes": (fileio.read_genotypes, "rs1 rs2\n0 1\nNA {}\n"),
    "zstats": (fileio.read_zstats, "snp_id\tz\nrs1\t0.5\nrs2\t{}\n"),
    "correlation": (fileio.read_correlation, "1 0.2\n\n0.2 {}\n"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "NaN"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_FILES))
def test_non_finite_number_refused_at_its_line(kind, value, tmp_path):
    reader, text = NON_FINITE_FILES[kind]
    path = tmp_path / "in.txt"
    path.write_text(text.format(value))
    with pytest.raises(fileio.ParseError,
                       match=rf"in\.txt:3: not a finite number: '{value}'$"):
        reader(str(path))


def test_genotype_missing_codes_mean_imputed(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a,b,c\n0, na ,1\n-1,1.5,2\n2,NA,-1.0\n1,0.5,0\n")
    G = fileio.read_genotypes(str(path))
    assert G.ids == ("a", "b", "c") and G.imputed == ("a", "b", "c")
    assert G.values.tolist() == [[0, 1, 1], [1, 1.5, 2], [2, 1, 1], [1, 0.5, 0]]


def test_genotype_column_entirely_missing(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("rs1 rs2 rs3\n0 NA 1\n1 -1 -1\n2 na 0\n")
    with pytest.raises(fileio.ParseError, match=r"in\.txt: column rs2 entirely missing$"):
        fileio.read_genotypes(str(path))
