import json
import pathlib

import pytest

from rect4 import cli
from rect4.exprparse import ParseError, parse_field_spec, parse_polynomial
from rect4.fields import QQ, rational_function_field

from conftest import load_case, run_cli_capped

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
        again = parse_field_spec(str(field))
        assert again == field


@pytest.mark.parametrize(
    "field,vars",
    [
        ("F2(Z)", ("X", "Z", "T")),
        ("Q[T]/(T^2+1)", ("Z", "T")),
        ("F2(s)[b]/(b^2+s)", ("Z", "b")),
        ("F2(s)[b]/(b^2+s)", ("s", "T")),
    ],
)
def test_variable_named_like_a_field_constant_is_a_parse_error(field, vars):
    with pytest.raises(ParseError) as err:
        parse_polynomial("1", parse_field_spec(field), vars)
    assert "is also the name of a constant" in str(err.value)


@pytest.mark.parametrize(
    "argv,name",
    [
        (["analyze", "X+Z", "X*T+Z^2", "F2(Z)"], "Z"),
        (["vartest", "Z+T", "Q[T]/(T^2+1)"], "T"),
        (["verify", "--field", "F2(Y)", "--vars", "X,Y,Z,T", "X", "Y", "Z", "T"], "Y"),
    ],
)
def test_variable_named_like_a_field_constant_is_a_usage_error(capsys, argv, name):
    # a would read Z as the parameter and F as the variable, and the
    # certificates printed for such a run could not be replayed
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"variable {name!r} is also the name of a constant" in captured.err


def test_repeated_variable_name_is_a_parse_error():
    # read as one variable, the claim X over (X, X) would be X*X
    with pytest.raises(ParseError) as err:
        parse_polynomial("X", QQ, ("X", "X"))
    assert "variable 'X' is listed twice" in str(err.value)


def test_repeated_variable_name_is_a_usage_error(capsys, tmp_path):
    claim = tmp_path / "claim.json"
    claim.write_text(json.dumps({"field": "Q", "variables": ["X", "X"], "claims": ["X", "X"]}))
    for argv in (
        ["verify", "--field", "Q", "--vars", "X,X", "X", "X"],
        ["verify", "--claim-file", str(claim)],
    ):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: variable 'X' is listed twice\n"


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


# each subcommand's smallest command line, and the options its handler reads
SUBCOMMANDS = {
    "analyze": (["analyze", "X", "Z", "Q"], ("--seed", "--degree-bound", "--cert-out")),
    "vartest": (["vartest", "Z+T^2", "Q"], ("--cert-out",)),
    "verify": (["verify", "--claim-file", str(CORPUS / "claims" / "insep_binomial_quadric_claim.json")], ()),
    "gr-check": (["gr-check", "X^2", "Z", "Q"], ("--seed",)),
    "factor": (["factor", "X^2-1", "Q"], ("--seed",)),
}
OPTION_VALUES = {"--seed": "7", "--degree-bound": "3", "--cert-out": None}


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
@pytest.mark.parametrize("option", OPTION_VALUES)
def test_options_are_accepted_only_where_they_are_read(capsys, tmp_path, cmd, option):
    argv, reads = SUBCOMMANDS[cmd]
    plain = run(capsys, argv)
    value = OPTION_VALUES[option] or str(tmp_path / "certs.json")
    code = cli.main(argv + [option, value])
    captured = capsys.readouterr()
    if option not in reads:
        assert (code, captured.out) == (3, "")
        assert f"unrecognized arguments: {option}" in captured.err
        assert not any(tmp_path.iterdir())
        return
    # the smallest inputs do not depend on the seed or the bound, and the
    # ones with a certificate write it
    assert (code, captured.out) == plain and code == 0
    if option == "--cert-out":
        assert json.loads((tmp_path / "certs.json").read_text())


def test_large_prime_field_answers_within_its_cap():
    # a prime near 10^18 once took trial division past any practical time
    proc = run_cli_capped("factor", "X^2+1", "F1000000000000000003")
    assert (proc.returncode, proc.stdout) == (0, "unit: 1\n  X^2+1\n")


# every odd prime up to 149 divides P, so the rational factoriser has to look
# past them for a prime that keeps the degree and the squarefreeness
P = 746091175469639660029437868307920534273791931663432265205


@pytest.mark.parametrize("a", [f"X^2-{P}", f"{P}*X^2+1"])
def test_factor_over_q_finds_a_prime_past_the_small_ones(a):
    proc = run_cli_capped("factor", a, "Q")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n  X^2") == 1 and "X^2" in proc.stdout.splitlines()[1]


def test_kronecker_image_finds_a_prime_past_the_small_ones():
    # the bivariate irreducibility of F goes through a Kronecker image whose
    # reduction mod every odd prime up to 149 is not squarefree
    proc = run_cli_capped("analyze", "X", f"Z^2+T^3+{P}*Z", "Q")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "irreducible=true" in proc.stdout and "verdict:   NotRectifiable" in proc.stdout


def test_rational_gcds_stay_in_the_integers():
    # the squarefree test of the norm over Q(i) runs gcds over Q whose field
    # Euclid swells the coefficients (about 12 s); the primitive PRS over Z
    # does not
    proc = run_cli_capped(
        "analyze", "X^2+1",
        "(X-1)*Z^3*T^2-2*Z^2*T^3+(-X-1)*Z*T^4+2*Z^2*T^2+2*X*Z*T^3-2*Z^3-2*X*Z^2*T-2*Z*T-2*X*T^2", "Q",
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "irreducible=false" in proc.stdout and "verdict:   NotRectifiable" in proc.stdout


@pytest.mark.parametrize("bound", ["-5", "-1", "two"])
def test_degree_bound_must_be_a_nonnegative_integer(capsys, bound):
    assert cli.main(["analyze", "X", "Z^2+T^3", "Q", "--degree-bound", bound]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --degree-bound: expected a nonnegative integer" in captured.err


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


@pytest.mark.parametrize(
    "F, irreducible, reason",
    [
        ("Z^3", "unknown", "univariate factorization over Q[g]/(g^2+1) is not supported"),
        (
            "Z^5*T^4+Z^2+T^3+X*Z^4*T^3+1",
            "unknown",
            "number-field reduction limited to degree <= 3 extensions and total degree <= 8",
        ),
        ("Z^2+T^3+1", "true", None),
    ],
    ids=["univariate-over-extension", "number-field-bound", "decided"],
)
def test_analyze_json_carries_the_irreducibility_reason(capsys, schema, F, irreducible, reason):
    code, doc = run_json(capsys, ["analyze", "X^2+1", F, "Q"])
    validate(doc, schema)
    root = doc["roots"][0]
    assert root["irreducible"] == irreducible
    assert root["irreducible_reason"] == reason


@pytest.mark.parametrize(
    "a, F, field, code, generated",
    [
        ("X^2+b", "Z+T^2", "F3(b)", 0, "F3(b)[c]/(c^2+b)"),
        ("X", "Z^2+b*T^2+T", "F2(b)", 2, "F2(b)[c]/(c^2+(1)/(b))"),
    ],
)
def test_generated_generators_avoid_a_parameter_named_b(capsys, a, F, field, code, generated):
    got, doc = run_json(capsys, ["analyze", a, F, field])
    assert got == code
    assert doc["roots"][0]["coordinate"]["certificate"]["field"] == generated
    # the same answer as with the parameter named s
    rename = str.maketrans("b", "s")
    want, ref = run_json(capsys, ["analyze", a.translate(rename), F.translate(rename), field.translate(rename)])
    assert want == code
    for key in ("verdict", "ufd", "fibration", "regular"):
        assert doc[key] == ref[key]


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


def test_verify_claim_file_missing_key(capsys, tmp_path):
    claim = json.loads((CORPUS / "claims" / "insep_binomial_quadric_claim.json").read_text())
    del claim["field"]
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(claim))
    assert cli.main(["verify", "--claim-file", str(path)]) == 3
    assert capsys.readouterr().err == "error: missing key 'field' in claim document\n"


def test_verify_certificate_missing_step_key(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(capsys, ["vartest", "Z+(T+Z^2)^3", "Q", "--cert-out", str(cert_path)])[0] == 0
    cert = json.loads(cert_path.read_text())
    del cert["steps"][0]["kind"]
    cert_path.write_text(json.dumps(cert))
    assert cli.main(["verify", "--cert", str(cert_path)]) == 3
    assert capsys.readouterr().err == "error: missing key 'kind' in certificate step\n"


def _elementary_cert(**changes):
    """A certificate over Q for f = T, with partner Z + T^2, whose one step
    shifts Z by T^2; ``changes`` overrides keys of the document or, with a
    ``step_`` prefix, of its step."""
    step = {"kind": "elementary", "target": "Z", "shift": "T^2"}
    doc = {
        "schema": cli.SCHEMA_CERT,
        "field": "Q",
        "variables": ["Z", "T"],
        "f": "T",
        "complement": "Z+T^2",
        "extension": None,
        "steps": [step],
    }
    for key, value in changes.items():
        if key.startswith("step_"):
            step[key[len("step_"):]] = value
        else:
            doc[key] = value
    return doc


def test_verify_replays_a_hand_written_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(_elementary_cert()))
    assert run(capsys, ["verify", "--cert", str(cert_path)])[0] == 0


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"step_target": "W"}, "target"),
        ({"step_kind": "bogus"}, "kind"),
        ({"variables": ["Z", "T", "W"]}, "variables"),
        ({"variables": ["T", "T"]}, "variables"),
        ({"step_kind": "linear", "step_matrix": [["1", "0"]], "step_translation": ["0", "0"]}, "matrix"),
        ({"step_kind": "linear", "step_matrix": [["1", "0"], ["0", "1"]], "step_translation": ["0"]}, "translation"),
    ],
    ids=["target-W", "kind-bogus", "three-variables", "repeated-variable", "matrix-1x2", "translation-1"],
)
def test_verify_certificate_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path, changes, key):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(_elementary_cert(**changes)))
    assert cli.main(["verify", "--cert", str(cert_path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: key {key!r} in certificate")


def _claim_doc(**changes):
    doc = json.loads((CORPUS / "claims" / "insep_binomial_quadric_claim.json").read_text())
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "option, doc, key",
    [
        ("--cert", [_elementary_cert()], "field"),
        ("--cert", _elementary_cert(steps=5), "steps"),
        ("--cert", _elementary_cert(steps=["elementary"]), "kind"),
        ("--cert", _elementary_cert(step_shift=2), "shift"),
        ("--cert", _elementary_cert(field=5), "field"),
        ("--cert", {"certificates": 5}, "certificates"),
        ("--claim-file", [_claim_doc()], "field"),
        ("--claim-file", _claim_doc(field=5), "field"),
    ],
    ids=[
        "cert-top-level-list",
        "cert-steps-5",
        "cert-step-string",
        "cert-shift-2",
        "cert-field-5",
        "bundle-certificates-5",
        "claim-top-level-list",
        "claim-field-5",
    ],
)
def test_verify_document_of_the_wrong_json_type_is_a_usage_error(capsys, tmp_path, option, doc, key):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", option, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(doc):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "replay_certificate", broken)
    cert = CORPUS / "claims" / "insep_binomial_quadric_claim.json"
    with pytest.raises(KeyError):
        cli.main(["verify", "--cert", str(cert)])


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # main builds its parser once per process; errors, --help and commands
    # run one after another in this process must print what a fresh process
    # prints for each, and a command repeated after the others must too
    monkeypatch.setenv("COLUMNS", "80")  # the --help layout, in both runs
    case = load_case(CORPUS / "insep_binomial_quadric.case")
    analyze = ["analyze", case["a"], case["F"], case["field"], "--json"]
    claim = str(CORPUS / "claims" / "insep_binomial_quadric_claim.json")
    sequence = [
        (["frobnicate"], 3),
        (["--help"], 0),
        (analyze, 0),
        (["verify", "--claim-file", claim], 0),
        (["analyze", "X^", "Z", "Q"], 3),
        (analyze, 0),
    ]
    outs = []
    for argv, want in sequence:
        code, out = run(capsys, argv)
        fresh = run_cli_capped(*argv, seconds=60)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        assert code == want, argv
        outs.append(out)
    assert outs[1].startswith("usage: rect4")
    assert json.loads(outs[2])["verdict"] == "Rectifiable" and outs[5] == outs[2]


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
