import json
import pathlib

import pytest

from rect4 import cli
from rect4.exprparse import ParseError, parse_field_spec, parse_polynomial, field_spec_string
from rect4.fields import QQ, rational_function_field

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SCHEMA_PATH = (
    ROOT / "src" / "rect4" / "schemas" / "report-v1.schema.json"
)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--json"])
    doc = json.loads(out) if out.strip() else None
    return code, doc


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def validate(doc, schema):
    import jsonschema

    jsonschema.validate(doc, schema)


# -- parser ---------------------------------------------------------------------


def test_parse_examples():
    a = parse_polynomial("X^2*(X-1)", QQ, ("X",))
    assert str(a) == "X^3-X^2"
    f = parse_polynomial("Z^2+T^3+1", QQ, ("X", "Z", "T"))
    assert f.total_degree() == 3
    F2s = rational_function_field(2)
    g = parse_polynomial("Z^2+s*T^2+T", F2s, ("Z", "T"))
    assert g.degree_in("Z") == 2 and g.degree_in("T") == 2


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_polynomial("Z^2 + + * T", QQ, ("Z", "T"))
    with pytest.raises(ParseError) as err:
        parse_polynomial("Z + W", QQ, ("Z", "T"))
    assert "W" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("2 Z", QQ, ("Z",))  # implicit multiplication


def test_field_spec_round_trip():
    for spec in ("Q", "F5", "F2(s)", "Q[i]/(i^2+1)", "F2(s)[b]/(b^2+s)"):
        field = parse_field_spec(spec)
        again = parse_field_spec(field_spec_string(field))
        assert again == field


def test_bad_field_specs():
    for spec in ("Q(s)", "F4", "Z", "Q[i]/(i^2-1)", "F2(s)[s]/(s^2+s+1)"):
        with pytest.raises(ParseError):
            parse_field_spec(spec)


# -- analyze exit codes and documents ----------------------------------------------


def test_analyze_cusp(capsys, schema):
    code, doc = run_json(capsys, ["analyze", "X", "Z^2+T^3+1", "Q"])
    assert code == 1
    validate(doc, schema)
    assert doc["verdict"] == "NotRectifiable"
    assert doc["ufd"] == "true" and doc["fibration"] == "false"


def test_analyze_rectifiable_with_certificate(capsys, schema, tmp_path):
    cert_path = tmp_path / "certs.json"
    code, doc = run_json(
        capsys,
        ["analyze", "X^2", "Z", "Q", "--cert-out", str(cert_path)],
    )
    assert code == 0
    validate(doc, schema)
    assert doc["verdict"] == "Rectifiable"
    assert doc["roots"][0]["coordinate"]["certificate"] is not None
    # replay the bundle through verify
    code2, doc2 = run_json(capsys, ["verify", "--cert", str(cert_path)])
    assert code2 == 0 and doc2["verdict"] == "Accept"


def test_analyze_not_domain_exit_code(capsys, schema):
    code, doc = run_json(capsys, ["analyze", "X", "X*Z", "Q"])
    assert code == 3
    validate(doc, schema)
    assert doc["verdict"] == "NotDomain"


def test_analyze_inconclusive_exit_code(capsys):
    code, doc = run_json(capsys, ["analyze", "X", "Z*T", "F5"])
    assert code == 2
    assert doc["verdict"] == "Inconclusive"


def test_analyze_char2_chp2(capsys, schema):
    code, doc = run_json(
        capsys, ["analyze", "X^2*(X^2-s)", "Z^2+s*T^2+T", "F2(s)"]
    )
    assert code == 1
    validate(doc, schema)
    assert doc["verdict"] == "NotRectifiable"
    assert "chp2" in doc["theorem_path"]
    assert doc["ufd"] == "true"


def test_degree_bound_degrades_to_unknown(capsys):
    code, doc = run_json(
        capsys,
        ["analyze", "X", "Z^2+T^3+1", "Q", "--degree-bound", "2"],
    )
    # the coordinate rejection still decides the verdict; only the
    # factoriality flag degrades honestly
    assert code == 1
    assert doc["ufd"] == "unknown"
    assert doc["verdict"] == "NotRectifiable"


def test_univariate_specialization_over_residue_extension(capsys, schema):
    # the specialization Z^3 at a root of X^2+1 is univariate over Q[g]/(g^2+1),
    # where no univariate factorization exists: irreducibility is unknown,
    # and the coordinate rejection still decides the verdict
    code, doc = run_json(capsys, ["analyze", "X^2+1", "Z^3", "Q"])
    assert code == 1
    validate(doc, schema)
    assert doc["verdict"] == "NotRectifiable"
    assert doc["ufd"] == "unknown"
    assert doc["roots"][0]["irreducible"] == "unknown"


def test_usage_errors(capsys):
    code, _ = run(capsys, ["analyze", "X +", "Z", "Q"])
    assert code == 3
    code, _ = run(capsys, ["analyze", "X", "Z", "F4"])
    assert code == 3
    code, _ = run(capsys, ["vartest", "Z^2", "Fnope"])
    assert code == 3


# -- vartest ------------------------------------------------------------------------


def test_vartest_accept_and_replay(capsys, schema, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, doc = run_json(
        capsys,
        ["vartest", "Z+(T+Z^2)^3", "Q", "--cert-out", str(cert_path)],
    )
    assert code == 0
    validate(doc, schema)
    assert doc["verdict"] == "Accept"
    code2, doc2 = run_json(capsys, ["verify", "--cert", str(cert_path)])
    assert code2 == 0


def test_vartest_reject(capsys, schema):
    code, doc = run_json(capsys, ["vartest", "Z^2+T^3+1", "Q"])
    assert code == 1
    validate(doc, schema)
    assert doc["verdict"] == "Reject"


def test_vartest_char2_extension_certificate(capsys, schema, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, doc = run_json(
        capsys,
        ["vartest", "Z^2+s*T^2+T", "F2(s)", "--cert-out", str(cert_path)],
    )
    assert code == 1
    validate(doc, schema)
    assert doc["extension_certificate"] is not None
    code2, doc2 = run_json(capsys, ["verify", "--cert", str(cert_path)])
    assert code2 == 0


# -- verify ----------------------------------------------------------------------


def test_verify_claim_file(capsys, schema):
    claim = CORPUS / "claims" / "insep_binomial_quadric_claim.json"
    code, doc = run_json(capsys, ["verify", "--claim-file", str(claim)])
    assert code == 0
    validate(doc, schema)
    assert doc["verdict"] == "Accept"
    assert set(doc["inverses"]) == {"X", "Y", "Z", "T"}


def test_verify_positional_claim(capsys):
    code, doc = run_json(
        capsys,
        [
            "verify",
            "--field",
            "Q",
            "--vars",
            "Z,T",
            "T",
            "Z+T^2",
        ],
    )
    assert code == 0


def test_verify_rejects_bad_claim(capsys):
    code, doc = run_json(
        capsys,
        ["verify", "--field", "Q", "--vars", "Z,T", "Z^2", "T"],
    )
    assert code == 1
    assert doc["witness"] == "Z"


# -- gr-check and factor ------------------------------------------------------------


def test_gr_check_document(capsys, schema):
    code, doc = run_json(capsys, ["gr-check", "X^2*(X+1)", "Z+X*T", "Q"])
    assert code == 0
    validate(doc, schema)
    assert doc["d"] == 2 and doc["w_x"] == -1 and doc["w_y"] == 2
    assert doc["residual"] == "-1" and doc["ok"]


def test_gr_check_without_rational_root_is_usage_error(capsys):
    code, _ = run(capsys, ["gr-check", "X^2+1", "Z+X*T", "Q"])
    assert code == 3


def test_gr_check_shifts_to_a_rational_root(capsys):
    code, doc = run_json(capsys, ["gr-check", "(X-1)^2", "Z+X*T", "Q"])
    assert code == 0
    assert doc["shift"] == "1"
    assert doc["ok"]


def test_factor_document(capsys, schema):
    code, doc = run_json(capsys, ["factor", "X^2*(X-1)", "Q"])
    assert code == 0
    validate(doc, schema)
    assert doc["unit"] == "1"
    assert doc["factors"] == [["X", 2], ["X-1", 1]]


def test_gr_check_char2_function_field(capsys):
    code, doc = run_json(
        capsys, ["gr-check", "X^2*(X^2-s)", "Z^2+s*T^2+T", "F2(s)"]
    )
    assert code == 0
    # s*x^2*y - f0 equals x^4*y in the quotient, of degree 2 - 4 = -2
    assert doc["d"] == 2 and doc["residual"] == "-2" and doc["ok"]


def test_factor_incomplete_exit_code(capsys):
    code, doc = run_json(capsys, ["factor", "X^2+X+s", "F2(s)"])
    assert code == 2
    assert doc["unresolved"] == [["X^2+X+s", 1]]


def test_factor_f2s(capsys):
    code, doc = run_json(capsys, ["factor", "X^2*(X^2-s)", "F2(s)"])
    assert code == 0
    assert sorted(tuple(f) for f in doc["factors"]) == [("X", 2), ("X^2+s", 1)]


def test_factor_f3s_root_split_keeps_the_cofactor(capsys):
    # dividing out the root X = -1 leaves X^2+s, whose X coefficient is zero
    code, doc = run_json(capsys, ["factor", "(X^2+s)*(X+1)", "F3(s)"])
    assert code == 0
    assert sorted(tuple(f) for f in doc["factors"]) == [("X+1", 1), ("X^2+s", 1)]


# -- corpus ---------------------------------------------------------------------------


def load_case(path):
    data = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


CASES = sorted(CORPUS.glob("*.case"))


@pytest.mark.parametrize("case_path", CASES, ids=lambda p: p.stem)
def test_corpus_case(case_path, capsys, schema):
    case = load_case(case_path)
    code, doc = run_json(
        capsys, ["analyze", case["a"], case["F"], case["field"]]
    )
    validate(doc, schema)
    assert doc["verdict"] == case["expected_verdict"], case_path.stem
    expected_code = {
        "Rectifiable": 0,
        "NotRectifiable": 1,
        "Inconclusive": 2,
        "NotDomain": 3,
    }[case["expected_verdict"]]
    assert code == expected_code
    # every emitted certificate replays
    for root in doc.get("roots", []):
        cert = root["coordinate"]["certificate"]
        if cert is not None:
            ok, why = cli.replay_certificate(cert)
            assert ok, why


def test_corpus_covers_all_three_flagship_cases():
    names = {p.stem for p in CASES}
    assert {
        "cusp_fiber",
        "insep_binomial_quadric",
        "insep_double_binomial",
    } <= names
    assert len(CASES) >= 13
