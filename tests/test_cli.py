import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import cli_oracle
import pytest
import sweep_oracle
from hypothesis import given, settings, strategies as st

from abelian_codes import cli, group_make
from abelian_codes.cli import run


def capture(capsys, argv):
    status = run(argv)
    return status, capsys.readouterr().out


def test_classify_md_output(capsys):
    status, out = capture(capsys, ["classify", "--group", "9,3", "--field", "2"])
    assert status == 0
    assert "class_count: 4" in out
    assert "tau: 3" in out
    assert "thm56_match: no" in out
    assert "group: 3,9" in out  # normalized form echoed


def test_classify_json_schema(capsys):
    status, out = capture(
        capsys, ["classify", "--group", "9,3", "--field", "2", "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert list(data) == ["group", "field", "codes", "classes", "class_count",
                          "tau", "homocyclic", "thm56_match"]
    assert len(data["codes"]) == 8 and data["class_count"] == 4
    assert sum(c["size"] for c in data["classes"]) == 8


def test_classify_trivial_group(capsys):
    status, out = capture(
        capsys, ["classify", "--group", "1", "--field", "2", "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert data["class_count"] == 1 and data["tau"] == 1


def test_classify_with_distributions_csv(capsys):
    status, out = capture(capsys, [
        "classify", "--group", "3,3", "--field", "2", "--format", "csv",
        "--with-distributions",
    ])
    assert status == 0
    assert out.startswith("section,idempotent_ref,")
    assert 'summary,"3,3",2,2,2,True,True' in out


def test_output_is_deterministic(capsys):
    argv = ["classify", "--group", "9,3", "--field", "2", "--format", "json",
            "--with-distributions"]
    _, first = capture(capsys, argv)
    _, second = capture(capsys, argv)
    assert first == second


def test_domain_error_record_and_exit_code(capsys):
    status, out = capture(capsys, ["classify", "--group", "4,2", "--field", "2"])
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "CharDividesOrder"
    assert record["message"]
    assert isinstance(record["context"], dict)


def test_sweep_output_digest(capsys):
    # sha256 of the stdout before the sweep moved to element indices
    status, out = capture(
        capsys, ["sweep", "--field", "2", "--max-order", "243", "--format", "json"])
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "7b52fca8f7243e5d47ba415a36912ef70f01cc4c6a8aaef554e6d3457f420940"


def test_sweep_over_gf3_to_3000_digest(capsys):
    # sha256 of the stdout when each row came from a built group, its
    # tau_sweep dict and the generic JSON writer
    status, out = capture(
        capsys, ["sweep", "--field", "3", "--max-order", "3000", "--format", "json"])
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "09b0bc36dddbc74ece197d2a8f5104727b2aa3b422ab09cb29ac7d2abd48d1d0"


@pytest.mark.parametrize("field", ["2", "3", "2^2", "5", "7"])
def test_sweep_matches_the_group_path_oracle(capsys, field):
    # every max-order up to 300 in every format, byte for byte as the
    # groups, their tau_sweep rows and the generic writers printed it
    ctx = cli._parse_field(field)
    rows = sweep_oracle.sweep_rows(ctx, 300)
    for max_order in range(1, 301):
        want = [row for n, row in rows if n <= max_order]
        for fmt in ("json", "csv", "md"):
            got = capture(capsys, ["sweep", "--field", field, "--max-order", str(max_order),
                                   "--format", fmt])
            assert got == (0, sweep_oracle.render(ctx, max_order, want, fmt)), (max_order, fmt)


@pytest.mark.parametrize("argv,status,digest", [
    ("subgroups --group 8,4,2 --field 3", 0,
     "03d7e6fac1ccb5df159eaaf70c6ab7fff6141cbcebde369e06e2644079179be1"),
    ("idempotents --group 9,3 --field 2", 0,
     "b3da7382ce61dfa460c309fdb519497a28836ef04b08af65d109681d6267f9db"),
    ("verify --group 25,5 --field 2", 0,
     "7cc406e3eec0a9b399ba47f43325cef8c00c79bd5a1bb0c8ce496198504852be"),
    ("classify --group 9,3 --field 2^2 --with-distributions", 0,
     "cabb3f6f9e0dc35d2c4de544352022286bb243f2c2a9ed30278023f5785843b4"),
    ("idempotents --group 9,3 --field 2^2", 0,
     "a95a0ac107ce220d23343f7d385b86d49908a406c692f0bed78e4e0f3de7475f"),
    ("subgroups --group 12,6 --field 5", 0,
     "674126b4c5949ccadc6a3070bdfa036b5bc51ca63b19eed9466f8ce45edfaf76"),
    ("subgroups --group 45,3 --field 2", 0,
     "0bd9fb9d1afb45abe6b4686a03553704724d6c3aeb986d8f2323205e2e98a9c5"),
    ("idempotents --group 13 --field 3^2", 0,
     "f128656fbb0ec5a25fdbd24dcd985096bb9de26731072b7f51ac563cb8962e85"),
    ("idempotents --group 5,5 --field 3", 0,
     "409419e0b44c282cbf30b62ccf27ad94dd9f9fdd1819efc7ef2fe65d1ddf7d06"),
    ("classify --group 21,3 --field 2^2 --format md", 0,
     "ad819abcc781945f5d2da4d87181f514b15ee7f2d71cc1b8296e6fc25c4db3bd"),
    ("classify --group 15,3 --field 2 --format csv --with-distributions", 0,
     "a520c7a6cf8823fa497ee761b0f142168ff8a0aefee72afbf14c45b2db7779e9"),
    ("verify --group 9,9 --field 2", 0,
     "49f6b14e0b7bb6874debe471ba67319eb16607d7a763fc3d062c4ff855673c2d"),
    ("verify --group 3,3,3 --field 5", 0,
     "99f6722c4ba31e5834c15df47ce609130d12970d96754946692c684fcb578cd6"),
    ("classify --group 38 --field 3", 0,
     "719b82782311024ed03bea778cba03657e034356ee42114ef5bdda1bf5e4aea2"),
    ("classify --group 3,29 --field 2", 0,
     "eb11930379ae8e8a0b4ef5d6a5a093f66f7bf034a52b20e4378ed158d95a1ea3"),
    ("classify --group 23 --field 2^3", 0,
     "f4b8b170c35138cd7936cde06c8ee94a17864b8a07f8f9ce630bfb4ab5443fff"),
    ("classify --group 25 --field 3^2", 0,
     "2a2d1efb6ea7000459ca9ad25cfd4b1110e58ba3e142ccaad6a6bcc453f04507"),
    ("classify --group 29 --field 5 --with-distributions", 0,
     "cfea1fb633f96c4a2c1395c0664d64795a43412bcdded3b50057a4cb04354499"),
    ("classify --group 7 --field 3^3 --with-distributions", 0,
     "894c5b149c527167e950a5b8f955d72a4222b2bd6861597e761a97fe098422e2"),
    ("idempotents --group 11 --field 7^2", 0,
     "1ae2c96f7b4115d33f6e1771e7ed83378551e4e173357b4a2536e3741bc6e5e0"),
    ("subgroups --group 9,3 --field 2 --format md", 0,
     "fbaf7d9cb092cdfd070789f3311b5a678d73bd7d6d960c168b254e731614dd39"),
    ("subgroups --group 12,6 --field 5 --format csv", 0,
     "e7498a89b91aef56cdc7a5ae167530ecaf5a54bc9dde748f9730b89dca3b2eda"),
    ("idempotents --group 9,3 --field 2^2 --format md", 0,
     "535b096e661a7cb869850d23d5bff78998d5d2d129b0a1fa5a2720dcee6a4345"),
    ("idempotents --group 5,5 --field 3 --format csv", 0,
     "27e8bec6024037fd6d1dee22903cdcc0069de6abb4b96cdbbe0039191d92101e"),
    ("verify --group 25,5 --field 2 --format md", 0,
     "dbbf9f0d7efc0efcf76d89c67d6718fb1f72f37eb7c5a07b222daf956a72120a"),
    ("verify --group 3,3,3 --field 5 --format csv", 0,
     "35262573b06bc6102e5c74b58b83a682c764da7fc074b87c6abbd0d3d4ee145b"),
    ("sweep --field 2 --max-order 81 --format md", 0,
     "ac688b093aece316711dd2d8da9441e662a5541dcc819edb6b669d595ba10528"),
    ("sweep --field 3 --max-order 81 --format csv", 0,
     "efc4ec4b315854cabefa8e879049a9e856c179dc5908d601fbe6f90e8a422c9b"),
    ("verify --group 49,7 --field 2 --format md", 1,
     "dec3a0429685f6e0e9837a582149929840d0f9f27c5bd5e2c757b06ca043c56b"),
    ("subgroups --group 2,4,128 --field 5", 0,
     "cb35c314acdb1b6cd257a64b3f7ca23ffda110ea133b29a6383eb8cc020cd137"),
    ("subgroups --group 6,6,6 --field 7", 0,
     "48da9b669fc4cfc0241912098f1828055a6cc2aadbe4b63cb0b46315815cec26"),
    ("idempotents --group 13 --field 3^2 --format csv", 0,
     "30cbe08887c267a970b071be5e1ff26ba3a041ec3a37bfb33e2198a3ce2bc87b"),
    ("idempotents --group 13 --field 3^2 --format md", 0,
     "a2582705893d5bca025528169b20d7db7fc6f163d9de429406a6c6f74392c7cd"),
    ("idempotents --group 11 --field 7^2 --format csv", 0,
     "08f69dfc5a646007bc9c84b48cdf3646d7e4c7febcea4382ac12be49bfb65e09"),
    ("idempotents --group 11 --field 7^2 --format md", 0,
     "4afbde9a6205bf130d3deb162aaa09b798e4b0397f0c93bc4020ccc6853fc42c"),
], ids=["subgroups", "idempotents", "verify", "classify", "idempotents-extension",
        "subgroups-mixed-sylow", "subgroups-mixed-sylow-45", "idempotents-13-gf9",
        "idempotents-5x5", "classify-md", "classify-csv", "verify-9x9",
        "verify-3x3x3", "bound-38-gf3", "bound-3x29-gf2", "bound-23-gf8",
        "bound-25-gf9", "bound-29-gf5", "classify-7-gf27", "idempotents-11-gf49",
        "subgroups-md", "subgroups-csv", "idempotents-md", "idempotents-csv",
        "verify-md", "verify-csv", "sweep-md", "sweep-csv", "verify-hypothesis-fails",
        "subgroups-2x4x128", "subgroups-6x6x6", "idempotents-13-gf9-csv",
        "idempotents-13-gf9-md", "idempotents-11-gf49-csv", "idempotents-11-gf49-md"])
def test_output_digest(capsys, argv, status, digest):
    # sha256 of the stdout before subgroups moved to element indices; the
    # extension-base idempotents digest is that of GF(4) embedded in
    # GF(2^(2s)) through the lex-least root of its modulus. The later cases
    # pin the output before the |G|-length code bases and the scalar wrapper
    # were deleted; the bound-* cases pin two-vector bounds over q > 2 and
    # bounds that depend on the basis's column order, on classes over the
    # fixed dimension cap (3,29 over GF(2): k = 28) or over the work bound
    # (38 over GF(3), next to an exact o = 19 class of the same k = 18), as
    # recorded before --dimension-cap was removed; the last two pin odd-p
    # extension bases, GF(27) embedded in GF(3^6) and GF(49) in GF(7^10),
    # before the field layer's irreducibility test was merged. The md and csv
    # cases of subgroups, idempotents, verify and sweep, and the verify
    # refused by its field hypothesis, pin the output before the four table
    # commands shared one renderer. The quotient types of 2,4,128 (order
    # 1,024), past the order-64 oracle of test_abelian_group, are pinned as
    # they were peeled element by element, before the Smith normal form.
    # 6,6,6, rank 3 with two primes, pins the lattice as it was merged from
    # its Sylow parts, before the Hermite enumeration.
    # The csv and md cases of 13 over GF(9) and 11 over GF(49) pin each odd-p
    # coefficient printed as its digit list, as it was while the raws of odd
    # GF(p^m) were digit tuples, before they became packed ints.
    # A case without --format is read as JSON.
    argv = argv.split()
    if "--format" not in argv:
        argv += ["--format", "json"]
    got, out = capture(capsys, argv)
    assert got == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt,digest", [
    ("md", "0599116360e7f862f83b5dfabec57c09d965e52f071a733a8c13c20e0168d767"),
    ("csv", "088a4d4da57a97ca4f76a79827c16e7f580cb35339b816f3df0564ea9a77aa37"),
    ("json", "238184de4e7c3d5cefeccc4e08cea3cc008e84ab84ecc9588b30573610c89584"),
])
def test_verify_with_a_failing_row_exits_1(capsys, monkeypatch, fmt, digest):
    # with one primitive idempotent withheld, the code count, one
    # primitivity row and the orbit partition of the 9,3 table fail
    import abelian_codes.reference as reference

    real = reference.primitive_idempotents
    monkeypatch.setattr(reference, "primitive_idempotents", lambda G, F: real(G, F)[:-1])
    status, out = capture(capsys, ["verify", "--group", "9,3", "--field", "2", "--format", fmt])
    assert status == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_CORPUS_GROUPS = ("1", "3", "4", "5", "7", "9", "11", "13", "15", "21", "3,3", "5,5", "9,3",
                  "2,2")
_CORPUS_COMMANDS = ("subgroups", "idempotents", "verify", "classify",
                    "classify --with-distributions")
_FORMATS = ("md", "csv", "json")


def _corpus():
    for field in ("2", "3", "2^2", "5"):
        for group in _CORPUS_GROUPS:
            for command in _CORPUS_COMMANDS:
                for fmt in _FORMATS:
                    yield command.split() + ["--group", group, "--field", field, "--format", fmt]
    for field in ("2", "3", "5"):
        for fmt in _FORMATS:
            yield ["sweep", "--field", field, "--max-order", "81", "--format", fmt]


def test_corpus_digest(capsys):
    # one sha256 over (argv, exit status, stdout) of 849 runs: every command
    # in every format over 14 groups and 4 fields, domain errors included
    # (231 runs exit 1), and the sweep over 3 fields; recorded before the
    # four table commands shared one renderer
    digest = hashlib.sha256()
    for argv in _corpus():
        status, out = capture(capsys, argv)
        digest.update(("%s\0%d\0%s\0" % (" ".join(argv), status, out)).encode())
    assert digest.hexdigest() \
        == "399ab43bb1de84b1510a6d6d34952e46a5e2bf80386671b1f5512a0a3daf2df5"


def test_json_writer_matches_json_dumps_on_the_corpus(capsys, monkeypatch):
    # every JSON output of the corpus, error records included, rendered by
    # the writer and by json.dumps(indent=2) from the same data; the sweep,
    # which the writer does not render, against json.dumps of what it printed
    from types import GeneratorType

    writer, compared = cli._json_pieces, []

    def checked(data):
        data = {k: list(v) if isinstance(v, GeneratorType) else v for k, v in data.items()}
        text = "".join(writer(data))
        assert text == json.dumps(data, indent=2) + "\n"
        compared.append(text)
        return [text]

    monkeypatch.setattr(cli, "_json_pieces", checked)
    for argv in _corpus():
        if argv[-1] == "json":
            out = capture(capsys, argv)[1]
            if argv[0] == "sweep":  # written from its row template, not by the writer
                assert out == json.dumps(json.loads(out), indent=2) + "\n"
                compared.append(out)
    assert len(compared) == 283


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=-10 ** 40)
            | st.floats() | st.text() | st.text(st.characters(max_codepoint=0x7f))
            | st.text(st.sampled_from('"\\\x00\x1f\x7f\x80\xe9\u2028\U0001f600 a')))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: (
    st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner)
    | st.lists(st.lists(st.integers(), min_size=1))), max_leaves=12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(value=_JSON_VALUES)
def test_json_writer_matches_json_dumps_on_drawn_values(value):
    # the writer of one value, and the streamed one of a dict with the
    # value at its top level and in a top-level list
    data = {"value": value, "list": [value, value], "empty": []}
    assert cli._json(value) == json.dumps(value, indent=2)
    assert "".join(cli._json_pieces(data)) == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    "sweep --field 2 --max-order 100001 --format json",
    "classify --group 3,3,3,3,3,3,3,3 --field 2 --format json",
    "idempotents --group 3,3,3,3,3,3,3,3 --field 2 --format json",
])
def test_refused_input_prints_only_its_error_record(capsys, argv):
    # refusals are raised before the first byte of the output
    status, out = capture(capsys, argv.split())
    assert status == 1
    record = json.loads(out)
    assert list(record) == ["error_code", "message", "context"]
    assert out == json.dumps(record, indent=2) + "\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--group", "9,3"])  # missing --field
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--group", "foo", "--field", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--group", "9,3", "--field", "2^x"])
    assert exc.value.code == 2


def test_non_prime_field_is_a_domain_error(capsys):
    status, out = capture(capsys, ["classify", "--group", "9,3", "--field", "4"])
    assert status == 1
    assert json.loads(out)["error_code"] == "NonPrimeP"


def test_characteristic_above_the_primality_bound_is_refused_quickly(capsys):
    # 2^89 - 1 is prime; trial division up to its square root never ended
    start = time.perf_counter()
    status, out = capture(
        capsys, ["classify", "--group", "3", "--field", "618970019642690137449562111"])
    assert time.perf_counter() - start < 1
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "DegreeTooLarge"
    assert record["context"] == {"characteristic": 2 ** 89 - 1,
                                 "bound": 3317044064679887385961981}


@pytest.mark.parametrize("argv,number", [
    (["classify", "--group", "4951760154835678088235319297", "--field", "2"], 4951760154835678088235319297),
    (["idempotents", "--group", "3", "--field", "2^127"], 2 ** 127 - 1),
    (["classify", "--group", "3,4951760154835678088235319297", "--field", "2"],
     3 * 4951760154835678088235319297),
])
def test_factorization_above_the_primality_bound_names_its_number(capsys, argv, number):
    # a group exponent, or the p^m - 1 of a field, with a cofactor past the
    # primality bound: the record names the number being factored, which
    # for the group 3,n is its exponent 3n (group_make factors nothing)
    status, out = capture(capsys, argv + ["--format", "json"])
    assert status == 1
    record = json.loads(out)
    assert record["message"] == "factorization bounded"
    assert record["context"] == {"number": number, "bound": 3317044064679887385961981}


def test_splitting_degree_above_bound_is_a_domain_error(capsys):
    # ord_4096(3) = 1024: refused before the field is searched for
    status, out = capture(capsys, ["classify", "--group", "4096", "--field", "3"])
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "DegreeTooLarge"
    assert record["context"]["degree"] == 1024


@pytest.mark.parametrize("group,field", [("17", "3^2"), ("27", "7")])
def test_coset_walk_gives_exact_minimum_weights(capsys, group, field):
    # 9^8 and 7^9 codewords: exact only through one word per coset
    status, out = capture(
        capsys, ["classify", "--group", group, "--field", field, "--format", "json"])
    assert status == 0
    assert all(c["min_weight_exact"] for c in json.loads(out)["codes"])


def test_enumeration_over_bound_reports_the_two_vector_bound(capsys):
    # the two codes of length 23 and dimension 11 over GF(8) need 5.3e7
    # coset-walk steps, past the enumeration bound
    status, out = capture(
        capsys, ["classify", "--group", "23", "--field", "2^3", "--format", "json"])
    assert status == 0
    codes = json.loads(out)["codes"]
    assert [(c["dimension"], c["min_weight_exact"]) for c in codes] \
        == [(1, True), (11, False), (11, False)]


def test_two_vector_bound_over_bound_is_a_domain_error(capsys):
    # GF(1000003)^6 has about 1e36 words, and the two-vector bound alone
    # would pack (q - 1) * 6^2 words
    status, out = capture(
        capsys, ["classify", "--group", "13", "--field", "1000003", "--format", "json"])
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "DimensionTooLarge"
    assert record["context"]["dimension"] == 6


def test_dimension_one_codes_over_a_huge_field_are_exact(capsys):
    # 3 | q - 1: each code has dimension 1 and takes N = 1 coset-walk step;
    # a q-sized candidate list or walk table made this run out of memory
    start = time.perf_counter()
    status, out = capture(capsys, [
        "classify", "--group", "3", "--field", "1000000007^2", "--format", "json"])
    assert time.perf_counter() - start < 2
    assert status == 0
    assert [(c["dimension"], c["min_weight"], c["min_weight_exact"])
            for c in json.loads(out)["codes"]] == [(1, 3, True)] * 3


def test_walk_over_a_huge_field_is_bounded(capsys):
    # k = 2: the walk tables would hold 2q words, past their bound, so the
    # walk would step (q + 1)/2 times by g(x), past the work bound
    start = time.perf_counter()
    status, out = capture(
        capsys, ["classify", "--group", "4", "--field", "10000019", "--format", "json"])
    assert time.perf_counter() - start < 2
    assert status == 1
    assert json.loads(out)["error_code"] == "DimensionTooLarge"


@pytest.mark.parametrize("argv,degree", [
    ("classify --group 1099511627776 --field 3", 2 ** 38),
    ("classify --group 1000000007 --field 2", 500000003),
    ("idempotents --group 1000000007 --field 2", 500000003),
    ("verify --group 1000003 --field 2", 1000002),
    ("classify --group 1000000000000000003 --field 2", 1000000000000000002),
    ("idempotents --group 1000000000000000003 --field 2", 1000000000000000002),
    ("classify --group 1000000007,1000000009 --field 2", 62500000875000003),
])
def test_large_splitting_degree_is_refused_quickly(capsys, argv, degree):
    # ord_n(q) is read off phi(n), not stepped to; verify refuses before it
    # builds the |G|-length reference idempotents.  n and phi(n) factor at
    # once: Pollard's rho splits what the trial division leaves
    start = time.perf_counter()
    status, out = capture(capsys, argv.split() + ["--format", "json"])
    assert time.perf_counter() - start < 1
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "DegreeTooLarge"
    assert record["context"]["degree"] == degree


def test_verify_hypothesis_over_a_large_prime_is_refused_quickly(capsys):
    # ord_(10^9 + 7)(2) = 500000003 < phi
    start = time.perf_counter()
    status, out = capture(
        capsys, ["verify", "--group", "1000000007", "--field", "2", "--format", "json"])
    assert time.perf_counter() - start < 1
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "HypothesisFails"
    assert record["context"]["order"] == 500000003


def test_base_field_degree_above_bound_is_a_domain_error(capsys):
    # refused before the modulus search, which would not end
    start = time.perf_counter()
    status, out = capture(capsys, ["classify", "--group", "3", "--field", "2^100000"])
    assert time.perf_counter() - start < 1
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "DegreeTooLarge"
    assert record["context"] == {"field": "2^100000", "degree": 100000, "bound": 512}


def test_sweep_over_a_mersenne_prime_field(capsys):
    # 2^61 - 1 is prime; trial division took past 20 s to say so
    status, out = capture(capsys, [
        "sweep", "--field", "2305843009213693951", "--max-order", "3", "--format", "json"])
    assert status == 0
    assert [r["group"] for r in json.loads(out)["rows"]] == ["1", "2", "3"]


def test_idempotents_dump(capsys):
    status, out = capture(
        capsys, ["idempotents", "--group", "9,3", "--field", "2",
                 "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert len(data["idempotents"]) == 8
    for entry in data["idempotents"]:
        assert list(entry) == ["orbit_rep", "phi_subgroup", "support_size",
                               "coeffs"]
        total = sum(run_len for _, run_len in entry["coeffs"])
        assert total == 27
        ones = sum(run_len for value, run_len in entry["coeffs"] if value == 1)
        assert ones == entry["support_size"]


@pytest.mark.parametrize("group,field", [("9,3", "2"), ("13", "3^2"), ("3,3", "2^2")])
def test_engine_commands_build_no_algebra_element(capsys, monkeypatch, group, field):
    # the engine holds each idempotent as its row, never as a dense element
    from abelian_codes.reference import AlgebraElement

    def refuse(*args):
        raise AssertionError("an AlgebraElement was built")

    monkeypatch.setattr(AlgebraElement, "__init__", refuse)
    for argv in (["classify", "--group", group, "--with-distributions"],
                 ["idempotents", "--group", group], ["sweep", "--max-order", "27"]):
        assert capture(capsys, argv + ["--field", field])[0] == 0, argv


def test_subgroups_listing(capsys):
    status, out = capture(
        capsys, ["subgroups", "--group", "9,3", "--field", "2",
                 "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert len(data["subgroups"]) == 10
    assert sum(1 for s in data["subgroups"] if s["cocyclic"]) == 7
    orders = sorted(s["order"] for s in data["subgroups"])
    assert orders == [1, 3, 3, 3, 3, 9, 9, 9, 9, 27]


def test_sweep_json(capsys):
    status, out = capture(
        capsys, ["sweep", "--max-order", "15", "--field", "2",
                 "--format", "json"])
    assert status == 0
    data = json.loads(out)
    specs = [r["group"] for r in data["rows"]]
    assert specs == ["1", "3", "5", "7", "3,3", "9", "11", "13", "15"]
    for row in data["rows"]:
        assert set(row) == {"group", "class_count", "tau", "homocyclic",
                            "thm56_match"}
        assert row["thm56_match"] == (row["class_count"] == row["tau"])


def test_verify_exit_codes(capsys):
    status, out = capture(capsys, ["verify", "--group", "9,3", "--field", "2"])
    assert status == 0
    assert "all rows pass: yes" in out
    status, out = capture(capsys, ["verify", "--group", "3,15", "--field", "2"])
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "DomainError"


def test_verify_hypothesis_failure_record(capsys):
    status, out = capture(capsys, ["verify", "--group", "49,7", "--field", "2"])
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "HypothesisFails"


def test_field_extension_spec(capsys):
    status, out = capture(
        capsys, ["subgroups", "--group", "3", "--field", "2^2",
                 "--format", "json"])
    assert status == 0
    assert json.loads(out)["field"] == "2^2"


def test_classify_over_degree_four_tower(capsys):
    # GF(4) reaches 17th roots of unity only in GF(4^4)
    status, out = capture(
        capsys, ["classify", "--group", "17", "--field", "2^2", "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert data["field"] == "2^2"
    assert sum(c["dimension"] for c in data["codes"]) == 17


@pytest.mark.parametrize("argv", [
    ["sweep", "--field", "2", "--max-order", "-5"],
    ["sweep", "--field", "2", "--max-order", "0"],
    ["sweep", "--field", "2", "--max-order", "ten"],
    ["sweep", "--field", "2", "--max-order", "-1"],
    ["sweep", "--field", "2", "--max-order", "2.5"],
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err or "expected an integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["subgroups", "--group", "9,3", "--field", "2"],
    ["idempotents", "--group", "9,3", "--field", "2"],
    ["sweep", "--field", "2"],
    ["classify", "--group", "9,3", "--field", "2"],
    ["verify", "--group", "9,3", "--field", "2"],
])
def test_dimension_cap_only_on_the_commands_that_read_it(capsys, argv):
    # the dimension cap is a fixed constant that no command reads from its
    # arguments, so every command refuses the option
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--dimension-cap", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_smallest_accepted_numbers(capsys):
    status, out = capture(capsys, [
        "sweep", "--field", "2", "--max-order", "1", "--format", "json"])
    assert status == 0
    assert [r["group"] for r in json.loads(out)["rows"]] == ["1"]


def test_sweep_above_the_order_bound_is_refused_quickly(capsys):
    from abelian_codes.cli import _SWEEP_ORDER_BOUND

    start = time.perf_counter()
    status, out = capture(capsys, [
        "sweep", "--field", "2", "--max-order", str(_SWEEP_ORDER_BOUND + 1)])
    assert time.perf_counter() - start < 1
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "GroupTooLarge"
    assert record["context"] == {"max_order": _SWEEP_ORDER_BOUND + 1,
                                 "bound": _SWEEP_ORDER_BOUND}


def test_classify_with_large_code_dimension_finishes(capsys):
    # the code of dimension 10 has 7^10 words but a dual of dimension 1
    status, out = capture(capsys, [
        "classify", "--group", "11", "--field", "7", "--format", "json"])
    assert status == 0
    assert [c["min_weight"] for c in json.loads(out)["codes"]] == [11, 2]


@pytest.mark.parametrize("command", ["classify", "idempotents"])
@pytest.mark.parametrize("group,codes", [
    ("3,3,3,3,3,3,3,3", 3281), ("7,7,7,7,7", 5603), ("1001,1001", 17371)])
def test_codes_times_group_order_above_the_bound_is_refused_quickly(
        capsys, command, group, codes):
    # 3^8 took 18 s to classify; the other two ran past 20 s
    from abelian_codes.group_algebra import _IDEMPOTENT_WORK_BOUND

    start = time.perf_counter()
    status, out = capture(capsys, [command, "--group", group, "--field", "2"])
    assert time.perf_counter() - start < 1
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "GroupTooLarge"
    order = group_make([int(d) for d in group.split(",")]).order
    assert record["context"] == {"codes": codes, "order": order, "bound": _IDEMPOTENT_WORK_BOUND}
    assert codes * order > _IDEMPOTENT_WORK_BOUND


def test_codes_times_group_order_below_the_bound_classifies(capsys):
    # 3^7 over GF(2): 1,094 codes times 2,187 elements
    status, out = capture(capsys, [
        "classify", "--group", "3,3,3,3,3,3,3", "--field", "2", "--format", "json"])
    assert status == 0
    assert len(json.loads(out)["codes"]) == 1094


@pytest.mark.parametrize("group,subgroups", [
    ("2,2,2,2,2,2,2,2", 417199), ("3,3,3,3,3,3", 56632), ("3,3,3,3,3,3,3", 2052656),
    (",".join(["2"] * 12), 488176700923)])
def test_subgroups_times_group_order_above_the_bound_is_refused_quickly(
        capsys, group, subgroups):
    # 2^8 and 3^6 ran past 60 s; the lattice is counted, not enumerated
    from abelian_codes.reference import _SUBGROUPS_WORK_BOUND

    start = time.perf_counter()
    status, out = capture(capsys, ["subgroups", "--group", group, "--field", "5"])
    assert time.perf_counter() - start < 1
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "GroupTooLarge"
    order = group_make([int(d) for d in group.split(",")]).order
    assert record["context"] == {"subgroups": subgroups, "order": order,
                                 "bound": _SUBGROUPS_WORK_BOUND}


# each option's spellings: exact, unique prefixes, and a prefix of two
# options ("--f": --field or --format)
_SPELLINGS = {
    "--group": ("--group", "--gro", "--g", "--f"),
    "--field": ("--field", "--fi", "--fiel", "--f"),
    "--format": ("--format", "--fo", "--form", "--f"),
    "--with-distributions": ("--with-distributions", "--with", "--w"),
    "--max-order": ("--max-order", "--max", "--m"),
}
# good values first; the rest are refused, or raise a domain error
_VALUES = {
    "--group": ("3", "5", "3,3", "1", "9,3", "foo", "4,2", "0", "-5", "", "3,,3", "-", "-x",
                "-3,3"),
    "--field": ("2", "3", "2^2", "4", "2^x", "1", "-5", "", "-", "-2^2"),
    "--format": ("json", "csv", "md", "xml", "-5", "", "JSON"),
    "--max-order": ("5", "12", "-5", "0", "ten", "2.5", "100001", "-1", " 7"),
}
_GOOD = {"--group": 5, "--field": 3, "--format": 3, "--max-order": 2}
_EXTRAS = ("extra", "-5", "-1.5", "-.5", "-5.", "-", "--", "-h", "--help", "--he", "-hh", "-hx",
           "--help=1", "-x", "--bogus", "--=2", "9,3")


def _oracle_corpus(count, seed=19):
    """count argvs over the five commands and an unknown one: the command's
    options, most of them present, in exact, abbreviated, ambiguous and
    "=" forms, with good or bad values or none, shuffled among extra
    tokens, which may also come before the command."""
    rng = random.Random(seed)
    commands = list(cli_oracle._COMMANDS) + ["frobnicate"]
    for _ in range(count):
        command = rng.choice(commands)
        options = cli._COMMANDS.get(command, (None, tuple(_SPELLINGS)))[1]
        items = []
        for name in options + (rng.choice(list(_SPELLINGS)),) * rng.randrange(2):
            if rng.random() < 0.08:
                continue
            spelling = rng.choice(_SPELLINGS[name]) if rng.random() < 0.4 else name
            if name not in _VALUES:
                items.append([spelling + "=1" if rng.random() < 0.1 else spelling])
                continue
            good = rng.random() < 0.85
            values = _VALUES[name][:_GOOD[name]] if good else _VALUES[name][_GOOD[name]:]
            value, form = rng.choice(values), rng.random()
            if form < 0.15:
                items.append([spelling + "=" + value])
            elif form < 0.18:
                items.append([spelling])  # its value is missing
            else:
                items.append([spelling, value])
        items += [[rng.choice(_EXTRAS)] for _ in range(rng.choice((0, 0, 0, 0, 0, 1, 2)))]
        rng.shuffle(items)
        argv = [token for item in items for token in item]
        head = [rng.choice(_EXTRAS)] if rng.random() < 0.05 else []
        yield head + [command] + argv


def _outcome(capsys, argv):
    try:
        status = run(argv)
    except SystemExit as exc:
        status = exc.code
    return status, capsys.readouterr().out


def test_parser_matches_the_argparse_oracle(capsys, monkeypatch):
    # same exit status and stdout as the argparse parser the CLI used
    # before, except the text of the help, whose status alone is compared
    corpus = list(_oracle_corpus(2000))
    got = [_outcome(capsys, argv) for argv in corpus]
    monkeypatch.setattr(cli, "_parse", cli_oracle.parse)
    want = [_outcome(capsys, argv) for argv in corpus]
    for argv, (status, out), (oracle_status, oracle_out) in zip(corpus, got, want):
        assert status == oracle_status, argv
        assert out == oracle_out or status == 0 and out.startswith("usage: "), argv
    statuses = Counter(status for status, _ in want)
    assert statuses[0] >= 200 and statuses[1] >= 100 and statuses[2] >= 500, statuses
    assert sum(out.startswith("usage: ") for _, out in got) >= 20


def test_canonical_argv_is_read_without_argparse(monkeypatch):
    # every command with its options in every order, each spelled in full,
    # fields spelled p, p^1 and p^m, classify with and without
    # --with-distributions: read by the fast reader, as argparse reads them
    def refuse(argv):
        raise AssertionError("handed to argparse: %r" % (argv,))

    values = {"--group": "9,3", "--format": "json", "--max-order": "5"}
    count = 0
    for command, (_, options, _, _) in cli._COMMANDS.items():
        for present in {options, tuple(n for n in options if n != "--with-distributions")}:
            for order in itertools.permutations(present):
                for field in ("2", "2^1", "2^3"):
                    argv = [command] + [token for name in order for token in (
                        [name] if name == "--with-distributions"
                        else [name, values.get(name, field)])]
                    with monkeypatch.context() as patch:
                        patch.setattr(cli, "_argparse_parse", refuse)
                        got = cli._parse(argv)
                    assert got == cli_oracle.parse(argv), argv
                    count += 1
    assert count == 4 * 6 * 3 + (24 + 6) * 3


def test_subgroups_of_a_large_prime_order_is_refused_quickly(capsys):
    # the order, 10^18 + 3, is prime: factorize ran trial division to its
    # square root before the order bound was checked
    start = time.perf_counter()
    status, out = capture(capsys, ["subgroups", "--group", "1000000000000000003", "--field", "2",
                                   "--format", "json"])
    assert time.perf_counter() - start < 2
    assert status == 1
    assert json.loads(out)["context"] == {"order": 1000000000000000003, "bound": 4096}


def test_subgroups_of_an_unfactored_order_is_refused_by_the_order_bound(capsys):
    # no factorization runs before the order bound: the order has a
    # cofactor past the primality bound
    status, out = capture(capsys, ["subgroups", "--group", "4951760154835678088235319297",
                                   "--field", "2", "--format", "json"])
    assert status == 1
    record = json.loads(out)
    assert record["error_code"] == "GroupTooLarge"
    assert record["context"] == {"order": 4951760154835678088235319297, "bound": 4096}


# ---------------------------------------------------------------------------
# how a python -m abelian_codes process ends
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_TEARDOWN_PROBE = ("class Probe:\n"
                   "    def __del__(self):\n"
                   "        sys.stderr.write('teardown ran\\n')\n"
                   "probe = Probe()\n")


def _process(args, stdout=subprocess.PIPE, stdin=b"", unbuffered=True):
    """(status, stdout, stderr) of a fresh interpreter started with args;
    stdout is captured unless a file descriptor is given."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable] + args, input=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _main_with(argv, before=""):
    """python -c code that runs the statements before, then cli.main on argv."""
    return ["-c", "import sys\n" + before + "sys.argv[1:] = %r\n"
            "from abelian_codes.cli import main\nmain()\n" % (argv,)]


@pytest.mark.parametrize("argv,status", [
    (["classify", "--group", "15,15", "--field", "2", "--format", "json"], 0),
    (["sweep", "--field", "2", "--max-order", "81"], 0),
    (["idempotents", "--group", "3,3", "--field", "2^2", "--format", "csv"], 0),
    (["classify", "--group", "4,2", "--field", "2"], 1),
    (["classify", "--group", "9,3", "--field", "2", "--format", "xml"], 2),
    (["classify", "--help"], 0),
    (["--help"], 0),
])
def test_a_process_prints_and_exits_as_run_does(capsys, monkeypatch, argv, status):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps its text to
    try:
        assert run(argv) == status
    except SystemExit as exc:
        assert exc.code == status
    want = capsys.readouterr()
    for unbuffered in (True, False):
        assert _process(["-m", "abelian_codes"] + argv, unbuffered=unbuffered) \
            == (status, want.out.encode(), want.err.encode())


def test_a_returning_run_skips_teardown_after_the_atexit_handlers(capsys):
    # the handlers run, and what they print is flushed; module teardown,
    # which would delete the probe, is skipped
    argv = ["classify", "--group", "3", "--field", "2", "--format", "json"]
    assert run(argv) == 0
    want = capsys.readouterr().out.encode() + b"handler ran\n"
    before = "import atexit\natexit.register(print, 'handler ran')\n" + _TEARDOWN_PROBE
    for unbuffered in (True, False):
        assert _process(_main_with(argv, before), unbuffered=unbuffered) == (0, want, b"")
    status, _, err = _process(_main_with(["classify", "--group", "4,2", "--field", "2"], before))
    assert (status, err) == (1, b"")  # a domain error ends the same way


@pytest.mark.parametrize("before,options,status", [
    ("sys.setprofile(eval('lambda *args: None', {}))\n", [], 0),
    ("sys.settrace(eval('lambda *args: None', {}))\n", [], 0),
    ("", ["--format", "xml"], 2),
])
def test_a_profiled_traced_or_raising_run_ends_through_the_interpreter(before, options, status):
    # the interpreter's own exit runs the module teardown, which deletes the
    # probe (a profile or trace function defined in __main__ would keep it)
    argv = ["classify", "--group", "3", "--field", "2"] + options
    got = _process(_main_with(argv, _TEARDOWN_PROBE + before))
    assert got[0] == status and got[2].endswith(b"teardown ran\n")


def test_a_closed_stderr_is_skipped_by_the_exit_flush(capsys):
    # started with descriptor 2 closed, sys.stderr is None, which the exit
    # flush skips as the interpreter's own exit does
    for argv, status in [(["classify", "--group", "3", "--field", "2"], 0),
                         (["classify", "--group", "4,2", "--field", "2"], 1)]:
        assert run(argv) == status
        want = capsys.readouterr().out.encode()
        proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m",
                               "abelian_codes"] + argv, stdout=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert (proc.returncode, proc.stdout) == (status, want)


def test_cprofile_and_trace_still_report_after_the_run():
    argv = ["classify", "--group", "3", "--field", "2"]
    status, out, err = _process(["-m", "cProfile", "-m", "abelian_codes"] + argv)
    assert (status, err) == (0, b"") and b"function calls" in out.split(b"classes:")[1]
    status, out, err = _process(["-m", "trace", "--listfuncs", "--module", "abelian_codes"] + argv)
    assert (status, err) == (0, b"") and b"funcname: run" in out.split(b"functions called:")[1]


def test_inspect_mode_still_enters_the_interpreter_after_the_run():
    argv = ["classify", "--group", "3", "--field", "2"]
    status, out, _ = _process(["-i", "-m", "abelian_codes"] + argv, stdin=b"print('inspected')\n")
    assert status == 0 and out.endswith(b"inspected\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--group", "3", "--field", "2", "--format", "json"],
    # 83 KB: run writes a 64 K batch itself before the exit's flush
    ["sweep", "--field", "2", "--max-order", "1000", "--format", "json"],
])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(argv):
    # buffered, a short output meets the closed pipe at the exit's flush;
    # unbuffered, or past the batch, a write in run meets it: either way
    # the status is 1 and nothing is printed on stderr
    for unbuffered in (False, True):
        read, write = os.pipe()
        os.close(read)
        try:
            got = _process(["-m", "abelian_codes"] + argv, stdout=write, unbuffered=unbuffered)
        finally:
            os.close(write)
        assert got == (1, None, b""), unbuffered
