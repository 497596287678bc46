import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

import pytest

import mcclass.cli
from mcclass.cli import main
from mcclass.combi import Composition
from mcclass.ring import poly_from_json
from mcclass.weightfn import localization_table


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_weight_single(capsys):
    code, out, _ = run_cli("weight", "--mu", "1,1", "--I", "{1},{2}",
                           "--format", "json", "--jobs", "1", capsys=capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["mu"] == [1, 1]
    terms = blob["weights"][0]["value"]["terms"]
    assert len(terms) == 2  # (1+y) a/t1 + (1+y) y a^2/(t1 t2)


def test_weight_all_mu_1(capsys):
    code, out, _ = run_cli("weight", "--mu", "1", "--all", "--format", "json",
                           "--jobs", "1", capsys=capsys)
    assert code == 0
    blob = json.loads(out)
    assert len(blob["weights"]) == 1
    assert blob["weights"][0]["value"]["terms"] == [{"exp": [0], "y": [1]}]


def test_weight_restricted_table(capsys):
    code, out, _ = run_cli("weight", "--mu", "1,1,1", "--all", "--restrict",
                           "--kind", "modified", "--format", "json", "--jobs", "1",
                           capsys=capsys)
    assert code == 0
    blob = json.loads(out)
    assert len(blob["classes"]) == 6
    assert all(len(c["entries"]) == 6 for c in blob["classes"])


def test_restricted_row_json_round_trip(capsys):
    # each JSON class reads back as its row of localization_table
    code, out, _ = run_cli("weight", "--mu", "1,1", "--all", "--restrict",
                           "--kind", "modified", "--format", "json", capsys=capsys)
    assert code == 0
    classes = json.loads(out)["classes"]
    table = localization_table(Composition((1, 1)))
    assert len(classes) == len(table)
    for cls, (I, row) in zip(classes, table.items()):
        assert cls["I"] == I.to_json() and cls["mu"] == [1, 1]
        values = {tuple(map(tuple, e["point"]["blocks"])): poly_from_json(e["value"])
                  for e in cls["entries"]}
        assert values == {J.blocks: f for J, f in row.items()}


def test_out_of_memory_is_a_fault(capsys, monkeypatch):
    # a MemoryError ends in one line and exit 2, with no traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(mcclass.cli, "localization_table", exhausted)
    code, out, err = run_cli("weight", "--mu", "1,1,1,1,2", "--all", "--restrict",
                             "--kind", "modified", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "computation fault: out of memory\n"


def test_axioms_pass(capsys):
    code, out, _ = run_cli("axioms", "--n", "2", "--jobs", "1", capsys=capsys)
    assert code == 0
    assert "0 violations" in out


def test_axioms_n1_vacuous(capsys):
    code, out, _ = run_cli("axioms", "--n", "1", "--jobs", "1", capsys=capsys)
    assert code == 0


def test_expand_text(capsys):
    code, out, _ = run_cli("expand", "--n", "3", "--p", "2,3,1", "--jobs", "1",
                           capsys=capsys)
    assert code == 0
    assert out.strip() == ("mC[2,3,1] = (t2/t3*y + 1)*[2,3,1] "
                           "- ((1 + t2/t3)*y + 1)*[3,2,1]")


def test_expand_trivial_point_cell(capsys):
    code, out, _ = run_cli("expand", "--n", "2", "--p", "2,1", "--jobs", "1",
                           capsys=capsys)
    assert code == 0
    assert out.strip() == "mC[2,1] = (1)*[2,1]"


def test_conjectures_exit_zero(capsys):
    code, out, _ = run_cli("conjectures", "--n", "2", "--jobs", "1", capsys=capsys)
    assert code == 0
    assert "0 violations" in out


def test_limit_default_cone(capsys):
    code, out, _ = run_cli("limit", "--cocharacter", "1,0,0",
                           "--cocharacter=-1,0,0", "--format", "json",
                           capsys=capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["results"][0]["limit"] == []
    assert blob["results"][1]["limit"] == [0, -1, -1, 1, 1]


def test_limit_user_class(tmp_path, capsys):
    from mcclass.ring import LaurentPoly, poly_to_json
    vars = ("al",)
    p = LaurentPoly.one(vars) - LaurentPoly.monomial(vars, (-1,))
    path = tmp_path / "class.json"
    path.write_text(json.dumps(poly_to_json(p)), encoding="utf-8")
    code, out, _ = run_cli("limit", "--class", str(path), "--cocharacter", "1",
                           capsys=capsys)
    assert code == 0
    assert "limit at (1,): 1" in out


def test_limit_zero_cocharacter_faults(capsys):
    code, _, err = run_cli("limit", "--cocharacter", "0,0,0", capsys=capsys)
    assert code == 2
    assert "denominator" in err


def test_interpolate_fundamental(capsys):
    code, out, _ = run_cli("interpolate", "--target", "omega1",
                           "--mode", "fundamental", capsys=capsys)
    assert code == 0
    assert out.strip().endswith("B2 - A2 - A1*B1 + A1^2")


def test_interpolate_csm_report(capsys):
    code, out, _ = run_cli("interpolate", "--target", "omega1", "--mode", "csm",
                           "--format", "json", capsys=capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["lowest_degree_matches_fundamental"] is True


def test_interpolate_open_orbit(capsys):
    code, out, _ = run_cli("interpolate", "--target", "omega0",
                           "--mode", "fundamental", capsys=capsys)
    assert code == 0
    assert out.strip().endswith(": 1")


def test_newton_svg(tmp_path, capsys):
    out_path = tmp_path / "pair.svg"
    code, _, _ = run_cli("newton", "--n", "3", "--pair", "1,2,3:3,2,1",
                         "--svg", str(out_path), capsys=capsys)
    assert code == 0
    body = out_path.read_text(encoding="utf-8")
    assert body.startswith("<svg ")
    assert "ek-polygon" in body and "class-polygon" in body


def test_newton_class_generators(tmp_path, capsys):
    from mcclass.ring import LaurentPoly, poly_to_json
    p = LaurentPoly(("t1", "t2"), {(0, 0): (1,), (-1, 1): (-1,)})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly_to_json(p)), encoding="utf-8")
    code, out, _ = run_cli("newton", "--class", str(path), capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["-1,1", "0,0"]


def test_newton_containment_exit_codes(tmp_path, capsys):
    from mcclass.ring import LaurentPoly, poly_to_json
    p = LaurentPoly(("t1", "t2"), {(0, 0): (1,), (-1, 1): (-1,)})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly_to_json(p)), encoding="utf-8")
    code, _, _ = run_cli("newton", "--class", str(path),
                         "--contains=-1/2,1/2", capsys=capsys)
    assert code == 0
    code, _, _ = run_cli("newton", "--class", str(path), "--contains", "1,0",
                         capsys=capsys)
    assert code == 1


def test_max_n_guard(capsys, monkeypatch):
    monkeypatch.setenv("MCCLASS_MAX_N", "3")
    code, _, err = run_cli("axioms", "--n", "4", "--jobs", "1", capsys=capsys)
    assert code == 2
    assert "exceeds" in err
    monkeypatch.setenv("MCCLASS_MAX_N", "4")
    code, _, _ = run_cli("expand", "--n", "4", "--p", "4,3,2,1", "--jobs", "1",
                         capsys=capsys)
    assert code == 0


def test_bad_input_exit_2(capsys):
    code, _, err = run_cli("weight", "--mu", "1,1", capsys=capsys)
    assert code == 2
    code, _, err = run_cli("expand", "--n", "3", "--p", "9,1,2", capsys=capsys)
    assert code == 2


def _bundled_orbits(corrupt) -> str:
    """The bundled orbit data as JSON text, after corrupt(data)."""
    from importlib.resources import files
    data = json.loads(files("mcclass.data").joinpath("a2quiver.json")
                      .read_text(encoding="utf-8"))
    corrupt(data)
    return json.dumps(data)


FILE = "<input file>"
DATA = ["interpolate", "--target", "omega0", "--data", FILE]
LIMIT = ["limit", "--cocharacter", "1", "--class", FILE]
NEWTON = ["newton", "--class", FILE]
NO_VARS = '{"terms": []}'
SEGMENT = ('{"vars": ["t1", "t2"], "terms": [{"exp": [-1, 1], "y": [-1]}, '
           '{"exp": [0, 0], "y": [1]}]}')


@pytest.mark.parametrize("args, content", [
    (["interpolate", "--target", "nope"], None),
    (DATA, _bundled_orbits(lambda d: d["orbits"][1].pop("codim"))),
    (DATA, _bundled_orbits(lambda d: d.pop("orbits"))),
    (DATA, _bundled_orbits(lambda d: d.update(orbits=5))),
    (["interpolate", "--target", "omega1", "--mode", "csm", "--data", FILE],
     _bundled_orbits(lambda d: d["orbits"][0].update(tangent_c=[{"const": 0}]))),
    (["interpolate", "--target", "omega2", "--data", FILE],
     _bundled_orbits(lambda d: d["orbits"][1].update(codim=3))),
    (DATA, _bundled_orbits(lambda d: d["orbits"][1].update(name="omega0"))),
    (DATA, _bundled_orbits(lambda d: d["orbits"][1]["phi"].update(zz="t1"))),
    (DATA, _bundled_orbits(lambda d: d["orbits"][1]["phi"].update(a2=2))),
    (DATA, _bundled_orbits(lambda d: d["orbits"][1].update(codim=2.0))),
    (DATA, _bundled_orbits(lambda d: d["orbits"][1]["tangent_c"][0]["coeffs"].update(b2=1.5))),
    (DATA, _bundled_orbits(lambda d: d["orbits"][1]["euler"][0].update(const=True))),
    (DATA, _bundled_orbits(lambda d: d["orbits"][0]["tangent_c"][0]["coeffs"].update(t1="-1"))),
    (DATA, _bundled_orbits(lambda d: d["symmetry"][1].append("c1"))),
    (DATA, _bundled_orbits(lambda d: d["symmetry"][0].append("b1"))),
    (DATA, _bundled_orbits(lambda d: d["orbits"][2]["euler"][0]["coeffs"].update(t9=1))),
    (["interpolate", "--target", "open", "--data", FILE],
     json.dumps({"vars": "ab", "orbits": [{"name": "open", "codim": 0, "phi": {},
                                          "euler": [], "tangent_c": []}]})),
    (DATA, None),
    (LIMIT, NO_VARS), (LIMIT, "[1, 2]"), (LIMIT, '{"vars": ['), (LIMIT, None),
    (NEWTON, NO_VARS), (NEWTON, "[1, 2]"), (NEWTON, '{"vars": ['), (NEWTON, None),
    (NEWTON, '{"vars": ["t1", "t2"], "terms": []}'),
    (NEWTON + ["--contains", "1/0"], SEGMENT), (NEWTON + ["--contains", "abc"], SEGMENT),
    (NEWTON + ["--contains", "1"], SEGMENT),
    (["conjectures", "--n", "2", "--checks", "bogus"], None),
    (["weight", "--mu", "1,x"], None),
    (["weight", "--mu", "1,1,1", "--I", "9,9,9"], None),
    (["expand", "--n", "3", "--p", "1,1,2"], None),
    (["limit", "--cocharacter", "abc"], None),
    (["limit", "--cocharacter", "1,0"], None),
], ids=["unknown-target", "orbit-without-codim", "no-orbits", "orbits-not-a-list",
        "zero-tangent-class", "codim-not-euler-degree",
        "duplicate-orbit-name", "phi-key-not-ansatz-variable", "phi-image-not-a-name",
        "codim-not-an-integer", "coefficient-not-an-integer", "const-a-bool",
        "coefficient-a-string", "symmetry-variable-not-in-vars", "variable-in-two-blocks",
        "factor-variable-unknown", "vars-a-string",
        "data-missing-file",
        "limit-missing-key", "limit-wrong-type", "limit-bad-json", "limit-missing-file",
        "newton-missing-key", "newton-wrong-type", "newton-bad-json",
        "newton-missing-file", "newton-zero-class", "contains-zero-denominator",
        "contains-not-a-number", "contains-wrong-dimension", "unknown-check", "bad-mu", "bad-index-tuple",
        "bad-permutation", "bad-cocharacter", "cocharacter-wrong-length"])
def test_interpolate_malformed_input_exit_2(tmp_path, args, content):
    # a full process run, so that a traceback would show on stderr; an
    # input file is written only when there is content for it
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    args = [str(path) if a == FILE else a for a in args]
    r = subprocess.run([sys.executable, "-m", "mcclass"] + args,
                       capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1, r.stderr
    assert "Traceback" not in r.stderr


def _class_file(terms, vars=("t1", "t2")) -> str:
    return json.dumps({"vars": list(vars), "terms": terms})


ZERO_DEN = json.dumps({"num": json.loads(SEGMENT), "den": {"vars": ["t1", "t2"], "terms": []}})


@pytest.mark.parametrize("args, content, reason", [
    (LIMIT, _class_file([{"exp": [1.5, 0], "y": [1]}]), "exponent 1.5 is not an integer"),
    (NEWTON, _class_file([{"exp": [True, 0], "y": [1]}]), "exponent True is not an integer"),
    (LIMIT, _class_file([{"exp": ["2", 0], "y": [1]}]), "exponent '2' is not an integer"),
    (NEWTON, _class_file([{"exp": [1, 0], "y": [1, 0.5]}]),
     "y-coefficient 0.5 is not an integer"),
    (LIMIT, _class_file([{"exp": [1, 0], "y": [1]}, {"exp": [1, 0], "y": [2]}]),
     "exponent vector [1, 0] is given twice"),
    (NEWTON, _class_file([{"exp": [1, 0], "y": [1]}], vars=("t1", "t1")),
     "vars ['t1', 't1'] name a variable twice"),
    (LIMIT, _class_file([{"exp": [1, 0], "y": [1]}], vars=("t1", 2)),
     "vars ['t1', 2] is not a list of names"),
    (LIMIT, ZERO_DEN, "rational expression with zero denominator"),
], ids=["exponent-a-float", "exponent-a-bool", "exponent-a-string", "y-a-float",
        "exponent-given-twice", "variable-given-twice", "variable-not-a-name",
        "zero-denominator"])
def test_malformed_class_file_exit_2(tmp_path, args, content, reason):
    # a full process run, so that a traceback would show on stderr
    path = tmp_path / "class.json"
    path.write_text(content, encoding="utf-8")
    args = [str(path) if a == FILE else a for a in args]
    r = subprocess.run([sys.executable, "-m", "mcclass"] + args,
                       capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 2, r.stderr
    assert r.stderr == f"error: malformed class file {str(path)!r}: {reason}\n"


def test_unwritable_output_is_bad_input(tmp_path, capsys):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli("axioms", "--n", "2", "--output", str(path), capsys=capsys)
    assert code == 2 and out == ""
    assert err == (f"error: cannot write output {str(path)!r}: "
                   "No such file or directory\n")


def test_interpolate_label_given_twice_is_malformed_orbit_data(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(_bundled_orbits(lambda d: d.update(groups=[
        {"label": "A", "vars": ["a1", "a2"]}, {"label": "A", "vars": ["b1", "b2", "b3"]}])),
        encoding="utf-8")
    r = subprocess.run([sys.executable, "-m", "mcclass", "interpolate", "--target", "omega0",
                        "--data", str(path)], capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 2, r.stderr
    assert r.stderr == (f"error: malformed orbit data {str(path)!r}: "
                        "group label 'A' is given twice\n")


def test_output_file_written(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli("expand", "--n", "2", "--p", "1,2", "--format", "json",
                           "--output", str(path), "--jobs", "1", capsys=capsys)
    assert code == 0
    assert out == ""
    blob = json.loads(path.read_text(encoding="utf-8"))
    assert blob[0]["p"] == [1, 2]


def test_serial_and_parallel_byte_identical(tmp_path):
    # full process runs, as a user would invoke them
    cmd = [sys.executable, "-m", "mcclass", "axioms", "--n", "3",
           "--format", "json"]
    a = subprocess.run(cmd + ["--jobs", "1"], capture_output=True, cwd=ROOT)
    b = subprocess.run(cmd + ["--jobs", "2"], capture_output=True, cwd=ROOT)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("module", ["mcclass.cli", "mcclass.axioms", "mcclass.expand",
                                    "mcclass.interp", "mcclass.newton"])
def test_import_leaves_out_heavy_stdlib_modules(module):
    # the CLI is started once per question, so startup is part of every
    # answer: no import of dataclasses (which pulls in inspect), and
    # annotation types from collections.abc rather than typing.  Only
    # what the import adds counts, so a site hook that preloads a module
    # does not matter.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(added & {'dataclasses', 'inspect', 'typing'}))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=ROOT, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


@pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc/self/status")
def test_conjectures_n5_peak_memory():
    # the checks read each expansion as the walk yields it, so the run
    # holds one path of cells rather than all 120 (about 121 MB)
    code = ("import sys\n"
            "from mcclass.cli import main\n"
            "code = main(['conjectures', '--n', '5', '--checks', 'log', '--jobs', '1'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    sys.stderr.write(next(l for l in fh if l.startswith('VmHWM:')))\n"
            "sys.exit(code)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=ROOT, text=True)
    assert r.returncode == 0, r.stderr
    assert "log-concavity: 3781 checks, 0 violations" in r.stdout
    peak_kb = int(r.stderr.split()[-2])
    assert peak_kb < 80 * 1024, f"VmHWM {peak_kb} kB"


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------


def test_golden_expand_table_n3(capsys, golden):
    code, out, _ = run_cli("expand", "--n", "3", "--all", "--jobs", "1",
                           capsys=capsys)
    assert code == 0
    golden("expand_n3.txt", out)


def test_golden_axioms_json_n2(capsys, golden):
    code, out, _ = run_cli("axioms", "--n", "2", "--format", "json",
                           "--jobs", "1", capsys=capsys)
    assert code == 0
    golden("axioms_n2.json", out)


def test_golden_limit_table(capsys, golden):
    code, out, _ = run_cli("limit", "--cocharacter", "1,0,0",
                           "--cocharacter=-1,0,0", "--cocharacter=-1,2,0",
                           capsys=capsys)
    assert code == 0
    golden("limit_cone.txt", out)


@pytest.mark.parametrize("mu, kind", [("2,1", "modified"), ("2,2", "modified"),
                                      ("1,2", "plain"), ("2,1", "segre"), ("1,1,1", "segre")])
def test_golden_weight_table_json(capsys, golden, mu, kind):
    code, out, _ = run_cli("weight", "--mu", mu, "--all", "--restrict",
                           "--kind", kind, "--format", "json",
                           "--jobs", "1", capsys=capsys)
    assert code == 0
    golden(f"weight_mu{mu.replace(',', '')}_{kind}.json", out)


@pytest.mark.parametrize("kind", ["plain", "modified", "segre"])
def test_golden_weight_table_text(capsys, golden, kind):
    code, out, _ = run_cli("weight", "--mu", "2,1", "--all", "--restrict",
                           "--kind", kind, capsys=capsys)
    assert code == 0
    golden(f"weight_mu21_{kind}.txt", out)


@pytest.mark.parametrize("kind", ["modified", "plain", "segre"])
def test_weight_restricted_one_cell(capsys, kind):
    # --I prints the class that --all prints for that cell
    args = ["weight", "--mu", "1,2,1", "--restrict", "--kind", kind, "--format", "json"]
    code, out, _ = run_cli(*args, "--all", capsys=capsys)
    assert code == 0
    classes = json.loads(out)["classes"]
    for cls in (classes[0], classes[5], classes[-1]):
        blocks = ",".join("{" + ",".join(map(str, b)) + "}" for b in cls["I"]["blocks"])
        code, out, _ = run_cli(*args, "--I", blocks, capsys=capsys)
        assert code == 0
        assert json.loads(out)["classes"] == [cls], blocks


def test_golden_newton_pair_svg(capsys, golden):
    code, out, _ = run_cli("newton", "--n", "3", "--pair", "2,3,1:3,2,1",
                           "--format", "svg", capsys=capsys)
    assert code == 0
    golden("newton_pair_231_321.svg", out)


def test_newton_gallery_writes_every_pair(tmp_path):
    # the gallery draws each of the 36 pairs through newton --pair
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "newton_gallery.py"),
                        str(tmp_path)], capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert len(list(tmp_path.glob("cell_*_at_*.svg"))) == 36
    assert ((tmp_path / "cell_231_at_321.svg").read_bytes()
            == (ROOT / "tests" / "golden" / "newton_pair_231_321.svg").read_bytes())


@pytest.mark.parametrize("target", ["omega0", "omega1", "omega2"])
def test_golden_interpolate_csm_json(capsys, golden, target):
    code, out, _ = run_cli("interpolate", "--target", target, "--mode", "csm",
                           "--format", "json", capsys=capsys)
    assert code == 0
    golden(f"interpolate_csm_{target}.json", out)


def test_golden_interpolate_fundamental_json_omega2(capsys, golden):
    code, out, _ = run_cli("interpolate", "--target", "omega2",
                           "--mode", "fundamental", "--format", "json",
                           capsys=capsys)
    assert code == 0
    golden("interpolate_fundamental_omega2.json", out)
