import json

import pytest

from purifylab.errors import PurifyLabError
from purifylab.fixtures import PROVENANCE_TAGS, run_fixtures


class TestBundledFixtures:
    def test_all_pass(self):
        report = run_fixtures()
        assert report["total"] >= 12
        assert report["passed"] == report["total"]

    def test_every_record_tagged(self):
        report = run_fixtures()
        for rec in report["records"]:
            assert rec["provenance"] in PROVENANCE_TAGS


def _record(**changes):
    rec = {"name": "x", "op": "avg_purity", "input": {"d_i": 2, "d_o": 2, "d_e": 2},
           "expected": 1.6, "tol": 1e-12, "provenance": "closed_form"}
    rec.update(changes)
    return rec


_MIXED_2_7 = {"side": 2.7, "re_im": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}


def _fidelity(**inputs):
    one = {"side": 1, "re_im": [[1.0, 0.0]]}
    return _record(op="fidelity", input={"rho": one, "sigma": one, **inputs}, expected=1.0,
                   provenance="trivial")


class TestSchemaEnforcement:
    @pytest.mark.parametrize("records, match", [
        ([_record(input={"d_i": 2, "d_o": 2})], "fixture 'x'"),
        ([_record(input={"d_i": 2, "d_o": 2, "d_e": 2, "n": 3})], "fixture 'x'"),
        ([_record(input=[1.0])], "fixture 'x'"),
        ([_record(tol="0.1")], "fixture 'x'"),
        ([_record(), 1.0], "record 1"),
        ({"a": _record()}, "list of records"),
        ([_record(op="fidelity", input={"rho": {"re_im": [[1.0, 0.0]]},
                                        "sigma": {"side": 1, "re_im": [[1.0, 0.0]]}},
                  expected=1.0)], "fixture 'x'.*'side'"),
        ([_record(op="kraus_roundtrip_dev",
                  input={"choi": {"d_i": 1, "re_im": [[1.0, 0.0]] * 4}}, expected=0.0)],
         "fixture 'x'.*'d_o'"),
        ([_record(expected="x")], "fixture 'x'"),
        ([_record(expected=[1.6, 1.6])], "fixture 'x'"),
        # an op that rejects its input: the closed forms outside EnsembleSpec's
        # shapes (once a ZeroDivisionError), mp_mu outside its domain, and a
        # flip dimension that is not an integer (once truncated to 2)
        ([_record(input={"d_i": 1, "d_o": 1, "d_e": 1})], "fixture 'x'.*DomainError"),
        ([_record(op="eps_dep", input={"d_i": 1, "d_o": 0, "d_e": 1}, expected=0.0)],
         "fixture 'x'.*DomainError"),
        ([_record(op="eps_avg_ue", input={"d_i": 1, "d_o": 2, "d_e": 0}, expected=0.0)],
         "fixture 'x'.*DomainError"),
        ([_record(op="eps_app_bounds", input={"d_i": 1, "d_o": 0, "d_e": 2},
                  expected=[0.0, 0.0])], "fixture 'x'.*DomainError"),
        ([_record(op="mp_mu", input={"c": 0}, expected=1.0)], "fixture 'x'.*mp_mu"),
        ([_record(op="flip_trace", input={"d": 2.5}, expected=2.5, provenance="trivial")],
         "fixture 'x'.*InvalidDims"),
        # a re_im record the one reader rejects (a short list once exited with
        # an unnamed numpy error; a float side or d_i was once truncated)
        ([_fidelity(rho={"side": 2, "re_im": [[1.0, 0.0]]})], "fixture 'x'.*InvalidDims"),
        ([_fidelity(rho={"side": 1, "re_im": [[1.0, 0.0, 0.0]]})], "fixture 'x'.*InvalidDims"),
        ([_fidelity(rho={"side": 1, "re_im": 1.0})], "fixture 'x'.*InvalidDims"),
        ([_fidelity(rho={"side": 1, "re_im": [["1.0", 0.0]]})], "fixture 'x'.*InvalidDims"),
        ([_fidelity(rho={"side": 1, "re_im": [[10**400, 0.0]]})], "fixture 'x'.*InvalidDims"),
        ([_fidelity(rho=_MIXED_2_7, sigma=_MIXED_2_7)], "fixture 'x'.*InvalidDims"),
        ([_record(op="kraus_roundtrip_dev", expected=0.0,
                  input={"choi": {"d_i": 1.9, "d_o": 2, "re_im": [[0.5, 0.0], [0.0, 0.0],
                                                                  [0.0, 0.0], [0.5, 0.0]]}})],
         "fixture 'x'.*InvalidDims"),
        ([_record(op="eps_dep", input={"d_i": 2.5, "d_o": 2, "d_e": 1}, expected=5.0)],
         "fixture 'x'.*DomainError"),
        ([_record(tol=True)], "fixture 'x'.*tol"),
        # a JSON true is not the integer 1 (once read as d_i = 1 and side = 1)
        ([_record(op="eps_dep", input={"d_i": True, "d_o": 2, "d_e": 2}, expected=0.75)],
         "fixture 'x'.*DomainError"),
        ([_fidelity(rho={"side": True, "re_im": [[1.0, 0.0]]})], "fixture 'x'.*InvalidDims"),
        # a complex expected value with one pair once broadcast against a matrix
        ([_record(op="depolarizing_choi", input={"d_i": 1, "d_o": 2},
                  expected={"re_im": [[0.5, 0.0]]})], "fixture 'x'.*bad expected value"),
    ], ids=["missing-input-key", "unexpected-input-key", "input-not-object",
            "tol-not-number", "record-not-object", "file-not-list",
            "matrix-missing-side", "choi-missing-field", "expected-not-number",
            "expected-wrong-shape", "avg-purity-outside-shapes", "eps-dep-outside-shapes",
            "eps-avg-ue-outside-shapes", "eps-app-bounds-outside-shapes", "mp-mu-domain",
            "flip-trace-float-dimension", "re-im-short", "re-im-three-number-pair",
            "re-im-not-list", "re-im-string-entry", "re-im-int-overflow", "side-float",
            "choi-d-i-float", "eps-dep-d-i-float", "tol-bool", "eps-dep-d-i-bool",
            "side-bool", "expected-re-im-short"])
    def test_malformed_file_names_the_record(self, tmp_path, records, match):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(records))
        with pytest.raises(PurifyLabError, match=match):
            run_fixtures(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([{"name": "x", "op": "mp_mu"}]))
        with pytest.raises(PurifyLabError):
            run_fixtures(str(path))

    def test_unknown_op_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        rec = {"name": "x", "op": "nope", "input": {}, "expected": 0,
               "tol": 0.1, "provenance": "trivial"}
        path.write_text(json.dumps([rec]))
        with pytest.raises(PurifyLabError):
            run_fixtures(str(path))

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        rec = {"name": "x", "op": "mp_mu", "input": {"c": 1.0}, "expected": 0.848,
               "tol": 0.1, "provenance": "guessed"}
        path.write_text(json.dumps([rec]))
        with pytest.raises(PurifyLabError):
            run_fixtures(str(path))

    def test_failing_record_reported(self, tmp_path):
        path = tmp_path / "f.json"
        rec = {"name": "wrong", "op": "avg_purity",
               "input": {"d_i": 2, "d_o": 2, "d_e": 2}, "expected": 999.0,
               "tol": 1e-9, "provenance": "derived"}
        path.write_text(json.dumps([rec]))
        report = run_fixtures(str(path))
        assert report["passed"] == 0
        assert report["records"][0]["status"] == "FAIL"
