import hashlib
import json

import pytest

from facetor import cli
from facetor.documents import data_document, dump_document, morphism_document
from facetor.documents import parse_data_document
from facetor.examples import basis_change_morphism, data_cstar2, \
    data_cstar2_rebased, example_names
from facetor.simplicial import same_data
from facetor.toricmorphism import ToricMorphism

from helpers import DOUBLED_PENTAGON, rp2_facets


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_document(doc))
    return str(path)


@pytest.fixture
def docs(tmp_path):
    out = {
        "cstar2": write(tmp_path, "cstar2.json", data_document(data_cstar2())),
        "rebased": write(tmp_path, "rebased.json",
                         data_document(data_cstar2_rebased())),
        "bc": write(tmp_path, "bc.json",
                    morphism_document(basis_change_morphism())),
        "cp1": write(tmp_path, "cp1.json",
                     {"name": "cp1",
                      "fan": {"rays": [[1], [-1]], "cones": [[0], [1]]}}),
        "pentagon": write(tmp_path, "pentagon.json", DOUBLED_PENTAGON),
        "bad": write(tmp_path, "bad.json",
                     {"name": "bad", "lattice_rank": 2,
                      "vertices": [{"id": "v", "chi": [2, 0]}],
                      "facets": [["v"]]}),
    }
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    out["broken"] = str(broken)
    return out


CSTAR2_GRID = """\
Tor table for cstar2-p1 over QQ (total degree <= 7)

t\\j  0  -1  -2
--------------
  6  .   .   1
  4  .   2   1
  2  1   2   .
  0  1   .   .

betti: 1 + 2 t + 2 t^2 + 2 t^3 + t^4
torsion: none
"""


def test_validate_ok(capsys, docs):
    rc, out, err = run_cli(capsys, "validate", docs["cstar2"])
    assert rc == 0
    assert "ok: characteristic data 'cstar2-p1'" in out
    assert err == ""


def test_validate_freeness_witness(capsys, docs):
    rc, out, _ = run_cli(capsys, "validate", docs["bad"])
    assert rc == 1
    assert "lattice basis" in out


def test_validate_malformed(capsys, docs):
    rc, _, err = run_cli(capsys, "validate", docs["broken"])
    assert rc == 2
    assert "invalid JSON" in err


def test_validate_missing_file(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "validate", str(tmp_path / "gone.json"))
    assert rc == 2
    assert "cannot read" in err


def test_validate_morphism(capsys, docs):
    rc, out, _ = run_cli(capsys, "validate", docs["rebased"], docs["cstar2"],
                         docs["bc"])
    assert rc == 0
    assert "ok: morphism 'basis-change'" in out


def test_validate_morphism_carrier_failure(capsys, tmp_path, docs):
    data = data_cstar2()
    phi = ToricMorphism(data, data, [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
                        {e: e for e in data.poset.elements}, name="flip")
    path = write(tmp_path, "flip.json", morphism_document(phi))
    rc, out, _ = run_cli(capsys, "validate", docs["cstar2"], docs["cstar2"],
                         path)
    assert rc == 1
    assert "integer combination" in out


def test_validate_wrong_file_count(capsys, docs):
    rc, _, err = run_cli(capsys, "validate", docs["cstar2"], docs["cp1"])
    assert rc == 2
    assert "validate takes" in err


def test_usage_errors(capsys, docs):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "tor", docs["cstar2"], "--coeffs", "zmod:4")[0] == 2
    assert run_cli(capsys, "tor", docs["cstar2"], "--coeffs", "gf9")[0] == 2
    assert run_cli(capsys, "tor", docs["cstar2"],
                   "--max-total-degree", "-1")[0] == 2


def test_oversized_modulus_is_a_usage_error(capsys, docs):
    rc, out, err = run_cli(capsys, "tor", docs["cstar2"],
                           "--coeffs", "zmod:%d" % (2 ** 89 - 1))
    assert rc == 2
    assert out == ""
    assert "too large" in err


def test_tor_grid_frozen(capsys, docs):
    rc, out, err = run_cli(capsys, "tor", docs["cstar2"])
    assert rc == 0
    assert out == CSTAR2_GRID
    assert err == ""


def test_tor_cp1_fan_input(capsys, docs):
    rc, out, _ = run_cli(capsys, "tor", docs["cp1"], "--coeffs", "z")
    assert rc == 0
    assert "betti: 1 + t^2" in out
    assert "torsion: none" in out


def test_tor_mod_p_and_truncation(capsys, docs):
    rc, out, _ = run_cli(capsys, "tor", docs["cstar2"], "--coeffs", "zmod:5",
                         "--max-total-degree", "2")
    assert rc == 0
    assert "over Z/5 (total degree <= 2)" in out
    assert "betti: 1 + 2 t + 2 t^2" in out


def test_tor_rejects_invalid_data(capsys, docs):
    rc, out, err = run_cli(capsys, "tor", docs["bad"])
    assert rc == 1
    assert out == ""
    assert "lattice basis" in err


def test_tor_torsion_summary(capsys, tmp_path):
    from facetor.simplicial import CharacteristicData, SimplicialPoset
    poset = SimplicialPoset.from_facets(rp2_facets())
    data = CharacteristicData.moment_angle(poset, name="rp2-six")
    path = write(tmp_path, "rp2.json", data_document(data))
    rc, out, _ = run_cli(capsys, "tor", path, "--coeffs", "z",
                         "--max-total-degree", "9")
    assert rc == 0
    assert "Z/2" in out
    assert "torsion: degree 9: Z/2" in out


def test_tor_structured_roundtrip(capsys, docs):
    rc, out, _ = run_cli(capsys, "tor", docs["cstar2"], "--format",
                         "structured")
    assert rc == 0
    doc = json.loads(out)
    assert doc["document"] == "tor-table"
    assert doc["coefficients"] == "q"
    assert doc["max_total_degree"] == 7
    assert same_data(parse_data_document(doc["data"]), data_cstar2())
    entries = {tuple(e["bidegree"]): e["rank"] for e in doc["entries"]}
    assert entries == {(0, 0): 1, (0, 2): 1, (-1, 2): 2, (-2, 4): 1,
                       (-1, 4): 2, (-2, 6): 1}
    assert all(e["torsion"] == [] for e in doc["entries"])
    totals = {e["total"]: e["rank"] for e in doc["totals"]}
    assert totals == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def test_tor_structured_deterministic(capsys, docs):
    rc1, out1, _ = run_cli(capsys, "tor", docs["cstar2"], "--format",
                           "structured")
    rc2, out2, _ = run_cli(capsys, "tor", docs["cstar2"], "--format",
                           "structured")
    assert rc1 == rc2 == 0
    assert out1 == out2


MULT_COMPARE = """\
product comparison for cstar2-p1 over QQ (total degree <= 7)
4 unordered pairs differ
g(-1,2;0) * g(-1,2;1): twisted -g(0,2;0) + g(-2,4;0), untwisted g(-2,4;0)
g(-1,2;0) * g(-2,4;0): twisted g(-1,4;0), untwisted 0
g(-1,2;1) * g(-2,4;0): twisted g(-1,4;1), untwisted 0
g(-2,4;0) * g(-2,4;0): twisted 2 g(-2,6;0), untwisted 0
"""


def test_mult_compare_frozen(capsys, docs):
    rc, out, _ = run_cli(capsys, "mult", docs["cstar2"], "--compare")
    assert rc == 0
    assert out == MULT_COMPARE


MULT_COMPARE_STRUCTURED = """\
{
  "coefficients": "q",
  "data": {
    "facets": [
      [
        "v"
      ],
      [
        "w"
      ]
    ],
    "lattice_rank": 3,
    "name": "cstar2-p1",
    "vertices": [
      {
        "chi": [
          1,
          1,
          1
        ],
        "id": "v"
      },
      {
        "chi": [
          -1,
          -1,
          -1
        ],
        "id": "w"
      },
      {
        "chi": [
          1,
          0,
          0
        ],
        "ghost": true,
        "id": "g1"
      },
      {
        "chi": [
          0,
          1,
          0
        ],
        "ghost": true,
        "id": "g2"
      }
    ]
  },
  "differences": [
    {
      "left": "g(-1,2;0)",
      "right": "g(-1,2;1)",
      "twisted": "-g(0,2;0) + g(-2,4;0)",
      "untwisted": "g(-2,4;0)"
    },
    {
      "left": "g(-1,2;0)",
      "right": "g(-2,4;0)",
      "twisted": "g(-1,4;0)",
      "untwisted": "0"
    },
    {
      "left": "g(-1,2;1)",
      "right": "g(-2,4;0)",
      "twisted": "g(-1,4;1)",
      "untwisted": "0"
    },
    {
      "left": "g(-2,4;0)",
      "right": "g(-2,4;0)",
      "twisted": "2 g(-2,6;0)",
      "untwisted": "0"
    }
  ],
  "document": "product-comparison",
  "max_total_degree": 7,
  "name": "cstar2-p1"
}
"""


def test_mult_compare_structured_frozen(capsys, docs):
    rc, out, err = run_cli(capsys, "mult", docs["cstar2"], "--compare",
                           "--format", "structured")
    assert rc == 0
    assert out == MULT_COMPARE_STRUCTURED
    assert err == ""


def test_mult_twisted_and_untwisted(capsys, docs):
    rc, out, _ = run_cli(capsys, "mult", docs["cstar2"])
    assert rc == 0
    assert "twisted products for cstar2-p1" in out
    assert "g(-1,2;0) * g(-1,2;1) = -g(0,2;0) + g(-2,4;0)" in out
    rc, out, _ = run_cli(capsys, "mult", docs["cstar2"], "--untwisted")
    assert rc == 0
    assert "g(-1,2;0) * g(-1,2;1) = g(-2,4;0)" in out


# Products on the doubled pentagon, a simplicial poset that is not a
# complex, captured before poset products were read from the integer
# product memo.  Every class lies in j = 0, so the twisted and untwisted
# products agree here.
MULT_DOUBLED_PENTAGON = """\
twisted products for doubled-5-gon over QQ (total degree <= 7)
g(0,0;0) * g(0,0;0) = g(0,0;0)
g(0,0;0) * g(0,2;0) = g(0,2;0)
g(0,0;0) * g(0,2;1) = g(0,2;1)
g(0,0;0) * g(0,2;2) = g(0,2;2)
g(0,0;0) * g(0,4;0) = g(0,4;0)
g(0,0;0) * g(0,4;1) = g(0,4;1)
g(0,0;0) * g(0,4;2) = g(0,4;2)
g(0,0;0) * g(0,4;3) = g(0,4;3)
g(0,0;0) * g(0,4;4) = g(0,4;4)
g(0,0;0) * g(0,4;5) = g(0,4;5)
g(0,2;0) * g(0,0;0) = g(0,2;0)
g(0,2;0) * g(0,2;0) = -g(0,4;4) - g(0,4;5)
g(0,2;0) * g(0,2;1) = g(0,4;4) + g(0,4;5)
g(0,2;0) * g(0,2;2) = 0
g(0,2;0) * g(0,4;0) = 0
g(0,2;0) * g(0,4;1) = 0
g(0,2;0) * g(0,4;2) = 0
g(0,2;0) * g(0,4;3) = 0
g(0,2;0) * g(0,4;4) = 0
g(0,2;0) * g(0,4;5) = 0
g(0,2;1) * g(0,0;0) = g(0,2;1)
g(0,2;1) * g(0,2;0) = g(0,4;4) + g(0,4;5)
g(0,2;1) * g(0,2;1) = 0
g(0,2;1) * g(0,2;2) = g(0,4;4) + g(0,4;5)
g(0,2;1) * g(0,4;0) = 0
g(0,2;1) * g(0,4;1) = 0
g(0,2;1) * g(0,4;2) = 0
g(0,2;1) * g(0,4;3) = 0
g(0,2;1) * g(0,4;4) = 0
g(0,2;1) * g(0,4;5) = 0
g(0,2;2) * g(0,0;0) = g(0,2;2)
g(0,2;2) * g(0,2;0) = 0
g(0,2;2) * g(0,2;1) = g(0,4;4) + g(0,4;5)
g(0,2;2) * g(0,2;2) = 0
g(0,2;2) * g(0,4;0) = 0
g(0,2;2) * g(0,4;1) = 0
g(0,2;2) * g(0,4;2) = 0
g(0,2;2) * g(0,4;3) = 0
g(0,2;2) * g(0,4;4) = 0
g(0,2;2) * g(0,4;5) = 0
g(0,4;0) * g(0,0;0) = g(0,4;0)
g(0,4;0) * g(0,2;0) = 0
g(0,4;0) * g(0,2;1) = 0
g(0,4;0) * g(0,2;2) = 0
g(0,4;1) * g(0,0;0) = g(0,4;1)
g(0,4;1) * g(0,2;0) = 0
g(0,4;1) * g(0,2;1) = 0
g(0,4;1) * g(0,2;2) = 0
g(0,4;2) * g(0,0;0) = g(0,4;2)
g(0,4;2) * g(0,2;0) = 0
g(0,4;2) * g(0,2;1) = 0
g(0,4;2) * g(0,2;2) = 0
g(0,4;3) * g(0,0;0) = g(0,4;3)
g(0,4;3) * g(0,2;0) = 0
g(0,4;3) * g(0,2;1) = 0
g(0,4;3) * g(0,2;2) = 0
g(0,4;4) * g(0,0;0) = g(0,4;4)
g(0,4;4) * g(0,2;0) = 0
g(0,4;4) * g(0,2;1) = 0
g(0,4;4) * g(0,2;2) = 0
g(0,4;5) * g(0,0;0) = g(0,4;5)
g(0,4;5) * g(0,2;0) = 0
g(0,4;5) * g(0,2;1) = 0
g(0,4;5) * g(0,2;2) = 0
"""

MULT_DOUBLED_PENTAGON_STRUCTURED_SHA256 = (
    "d085c9edb5aa3621a654d3a2daaffbdb155030e1829e1c5fe04f22821dbb6c47")


def test_mult_poset_frozen(capsys, docs):
    rc, out, err = run_cli(capsys, "mult", docs["pentagon"], "--twisted")
    assert (rc, err) == (0, "")
    assert out == MULT_DOUBLED_PENTAGON


def test_mult_poset_structured_frozen(capsys, docs):
    rc, out, err = run_cli(capsys, "mult", docs["pentagon"], "--untwisted",
                           "--format", "structured")
    assert (rc, err) == (0, "")
    frozen = [tuple(line.replace(" = ", " * ").split(" * "))
              for line in MULT_DOUBLED_PENTAGON.splitlines()[1:]]
    assert [(p["left"], p["right"], p["value"])
            for p in json.loads(out)["products"]] == frozen
    assert hashlib.sha256(out.encode()).hexdigest() == \
        MULT_DOUBLED_PENTAGON_STRUCTURED_SHA256


def test_mult_compare_agreeing(capsys, tmp_path):
    path = write(tmp_path, "cp2.json",
                 {"name": "cp2", "fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                                         "cones": [[0, 1], [1, 2], [0, 2]]}})
    rc, out, _ = run_cli(capsys, "mult", path, "--compare")
    assert rc == 0
    assert "products agree" in out


def test_mult_structured(capsys, docs):
    rc, out, _ = run_cli(capsys, "mult", docs["cstar2"], "--format",
                         "structured")
    assert rc == 0
    doc = json.loads(out)
    assert doc["document"] == "products"
    assert doc["twisted"] is True
    assert len(doc["products"]) == 63
    assert same_data(parse_data_document(doc["data"]), data_cstar2())


def test_map_basis_change(capsys, docs):
    rc, out, _ = run_cli(capsys, "map", docs["rebased"], docs["cstar2"],
                         docs["bc"], "--show-hatq")
    assert rc == 0
    assert "morphism basis-change: cstar2-p1 rebased -> cstar2-p1" in out
    assert "hat q = 0" in out
    untwisted, twisted = out.split("\ntwisted images:\n")
    assert "  g(-2,4;0) -> g(-2,4;0)" in untwisted
    assert "  g(-2,4;0) -> g(0,2;0) + g(-2,4;0)" in twisted


MAP_BASIS_CHANGE = """\
morphism basis-change: cstar2-p1 rebased -> cstar2-p1 (over QQ, total degree <= 7)
induced maps act from the target table to the source table
hat q = 0
untwisted images:
  g(0,0;0) -> g(0,0;0)
  g(-1,2;0) -> g(-1,2;0) - g(-1,2;1)
  g(-1,2;1) -> -g(-1,2;1)
  g(0,2;0) -> g(0,2;0)
  g(-2,4;0) -> g(-2,4;0)
  g(-1,4;0) -> g(-1,4;0) - g(-1,4;1)
  g(-1,4;1) -> -g(-1,4;1)
  g(-2,6;0) -> g(-2,6;0)
twisted images:
  g(0,0;0) -> g(0,0;0)
  g(-1,2;0) -> g(-1,2;0) - g(-1,2;1)
  g(-1,2;1) -> -g(-1,2;1)
  g(0,2;0) -> g(0,2;0)
  g(-2,4;0) -> g(0,2;0) + g(-2,4;0)
  g(-1,4;0) -> g(-1,4;0) - g(-1,4;1)
  g(-1,4;1) -> -g(-1,4;1)
  g(-2,6;0) -> g(-2,6;0)
"""


def test_map_basis_change_frozen(capsys, docs):
    rc, out, err = run_cli(capsys, "map", docs["rebased"], docs["cstar2"],
                           docs["bc"], "--both", "--show-hatq")
    assert rc == 0
    assert out == MAP_BASIS_CHANGE
    assert err == ""


def power2_document(tmp_path):
    from facetor.toricmorphism import power_morphism
    phi = power_morphism(data_cstar2(), 2)
    phi.name = "power-map:2"
    return write(tmp_path, "pow2.json", morphism_document(phi))


MAP_POWER_2 = """\
morphism power-map:2: cstar2-p1 -> cstar2-p1 (over QQ, total degree <= 7)
induced maps act from the target table to the source table
hat q[2,1] = -t[{v}]-t[{w}]
hat q[3,1] = -t[{v}]-t[{w}]
hat q[3,2] = -t[{v}]-t[{w}]
untwisted images:
  g(0,0;0) -> g(0,0;0)
  g(-1,2;0) -> 2 g(-1,2;0)
  g(-1,2;1) -> 2 g(-1,2;1)
  g(0,2;0) -> 2 g(0,2;0)
  g(-2,4;0) -> 4 g(-2,4;0)
  g(-1,4;0) -> 4 g(-1,4;0)
  g(-1,4;1) -> 4 g(-1,4;1)
  g(-2,6;0) -> 8 g(-2,6;0)
twisted images:
  g(0,0;0) -> g(0,0;0)
  g(-1,2;0) -> 2 g(-1,2;0)
  g(-1,2;1) -> 2 g(-1,2;1)
  g(0,2;0) -> 2 g(0,2;0)
  g(-2,4;0) -> -2 g(0,2;0) + 4 g(-2,4;0)
  g(-1,4;0) -> 4 g(-1,4;0)
  g(-1,4;1) -> 4 g(-1,4;1)
  g(-2,6;0) -> 8 g(-2,6;0)
"""


def test_map_power_frozen(capsys, tmp_path, docs):
    path = power2_document(tmp_path)
    rc, out, err = run_cli(capsys, "map", docs["cstar2"], docs["cstar2"], path,
                           "--both", "--show-hatq")
    assert rc == 0
    assert out == MAP_POWER_2
    assert err == ""


def test_map_power_hatq(capsys, tmp_path, docs):
    path = power2_document(tmp_path)
    rc, out, _ = run_cli(capsys, "map", docs["cstar2"], docs["cstar2"], path,
                         "--show-hatq", "--twisted")
    assert rc == 0
    assert "hat q[2,1] = -t[{v}]-t[{w}]" in out
    assert "hat q[3,2] = -t[{v}]-t[{w}]" in out
    assert "untwisted images:" not in out
    assert "  g(-1,2;0) -> 2 g(-1,2;0)" in out
    assert "  g(-2,4;0) -> -2 g(0,2;0) + 4 g(-2,4;0)" in out


MAP_POWER_2_DOUBLED_PENTAGON = """\
morphism power-map:2: doubled-5-gon -> doubled-5-gon (over QQ, total degree <= 7)
induced maps act from the target table to the source table
hat q[2,1] = -t[v2]
untwisted images:
  g(0,0;0) -> g(0,0;0)
  g(0,2;0) -> 2 g(0,2;0)
  g(0,2;1) -> 2 g(0,2;1)
  g(0,2;2) -> 2 g(0,2;2)
  g(0,4;0) -> 4 g(0,4;0)
  g(0,4;1) -> 4 g(0,4;1)
  g(0,4;2) -> 4 g(0,4;2)
  g(0,4;3) -> 4 g(0,4;3)
  g(0,4;4) -> 4 g(0,4;4)
  g(0,4;5) -> 4 g(0,4;5)
twisted images:
  g(0,0;0) -> g(0,0;0)
  g(0,2;0) -> 2 g(0,2;0)
  g(0,2;1) -> 2 g(0,2;1)
  g(0,2;2) -> 2 g(0,2;2)
  g(0,4;0) -> 4 g(0,4;0)
  g(0,4;1) -> 4 g(0,4;1)
  g(0,4;2) -> 4 g(0,4;2)
  g(0,4;3) -> 4 g(0,4;3)
  g(0,4;4) -> 4 g(0,4;4)
  g(0,4;5) -> 4 g(0,4;5)
"""


def pentagon_power2_document(tmp_path):
    from facetor.toricmorphism import power_morphism
    phi = power_morphism(parse_data_document(DOUBLED_PENTAGON), 2)
    phi.name = "power-map:2"
    return write(tmp_path, "pow2-pentagon.json", morphism_document(phi))


def test_map_power_poset_frozen(capsys, tmp_path, docs):
    path = pentagon_power2_document(tmp_path)
    rc, out, err = run_cli(capsys, "map", docs["pentagon"], docs["pentagon"],
                           path, "--both", "--show-hatq")
    assert (rc, err) == (0, "")
    assert out == MAP_POWER_2_DOUBLED_PENTAGON


def test_map_builds_one_table_for_same_data(capsys, tmp_path, monkeypatch,
                                            docs):
    calls = []
    compute_tor = cli.compute_tor

    def counting(data, *args, **kwargs):
        calls.append(data.name)
        return compute_tor(data, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_tor", counting)
    path = pentagon_power2_document(tmp_path)
    assert run_cli(capsys, "map", docs["pentagon"], docs["pentagon"], path,
                   "--both")[0] == 0
    assert calls == ["doubled-5-gon"]
    del calls[:]
    assert run_cli(capsys, "map", docs["rebased"], docs["cstar2"],
                   docs["bc"], "--both")[0] == 0
    assert calls == ["cstar2-p1", "cstar2-p1 rebased"]


def test_map_structured(capsys, docs):
    rc, out, _ = run_cli(capsys, "map", docs["rebased"], docs["cstar2"],
                         docs["bc"], "--format", "structured")
    assert rc == 0
    doc = json.loads(out)
    assert doc["document"] == "induced-map"
    assert doc["source"] == "cstar2-p1 rebased"
    assert doc["target"] == "cstar2-p1"
    assert {e["generator"]: e["image"] for e in doc["twisted"]}[
        "g(-2,4;0)"] == "g(0,2;0) + g(-2,4;0)"
    assert {e["generator"]: e["image"] for e in doc["untwisted"]}[
        "g(-2,4;0)"] == "g(-2,4;0)"


def test_map_rejects_mismatched_names(capsys, docs):
    rc, _, err = run_cli(capsys, "map", docs["cstar2"], docs["rebased"],
                         docs["bc"])
    assert rc == 2
    assert "names" in err


OMEGA = """\
omega for cstar2-p1 over QQ (total degree <= 7)
g(0,0;0) -> g(0,0;0)
g(-1,2;0) -> g(-1,2;0)
g(-1,2;1) -> g(-1,2;1)
g(0,2;0) -> g(0,2;0)
g(-2,4;0) -> g(0,2;0) + g(-2,4;0)
g(-1,4;0) -> g(-1,4;0)
g(-1,4;1) -> g(-1,4;1)
g(-2,6;0) -> g(-2,6;0)
product intertwining: ok (63 pairs)
"""


def test_omega(capsys, docs):
    assert run_cli(capsys, "omega", docs["cstar2"]) == (0, OMEGA, "")


OMEGA_STRUCTURED = """\
{
  "coefficients": "q",
  "document": "omega",
  "images": [
    {
      "generator": "g(0,0;0)",
      "image": "g(0,0;0)"
    },
    {
      "generator": "g(-1,2;0)",
      "image": "g(-1,2;0)"
    },
    {
      "generator": "g(-1,2;1)",
      "image": "g(-1,2;1)"
    },
    {
      "generator": "g(0,2;0)",
      "image": "g(0,2;0)"
    },
    {
      "generator": "g(-2,4;0)",
      "image": "g(0,2;0) + g(-2,4;0)"
    },
    {
      "generator": "g(-1,4;0)",
      "image": "g(-1,4;0)"
    },
    {
      "generator": "g(-1,4;1)",
      "image": "g(-1,4;1)"
    },
    {
      "generator": "g(-2,6;0)",
      "image": "g(-2,6;0)"
    }
  ],
  "intertwines": true,
  "max_total_degree": 7,
  "name": "cstar2-p1"
}
"""


def test_omega_structured_frozen(capsys, docs):
    assert run_cli(capsys, "omega", docs["cstar2"], "--format",
                   "structured") == (0, OMEGA_STRUCTURED, "")


def test_omega_integer_refusal(capsys, docs):
    rc, out, err = run_cli(capsys, "omega", docs["cstar2"], "--coeffs", "z")
    assert rc == 1
    assert out == ""
    assert "2 invertible" in err


def test_omega_mod_two_refusal(capsys, docs):
    rc, _, err = run_cli(capsys, "omega", docs["cstar2"], "--coeffs",
                         "zmod:2")
    assert rc == 1
    assert "2 invertible" in err


def test_example_runs(capsys):
    outputs = {}
    for name in example_names():
        rc, outputs[name], _ = run_cli(capsys, "example", name)
        assert rc == 0, name
        assert outputs[name].startswith("example %s: ok" % name)
        assert "MISMATCH" not in outputs[name]
    assert "corrected image of b" in outputs["power-map:2"]


def test_example_unknown(capsys):
    rc, _, err = run_cli(capsys, "example", "nope")
    assert rc == 2
    assert "unknown example" in err
    for name in example_names():
        assert name.split(":")[0] in err


def test_thread_env_variable(capsys, monkeypatch, docs):
    monkeypatch.setenv("FACETOR_THREADS", "4")
    rc, out, err = run_cli(capsys, "validate", docs["cstar2"])
    assert rc == 0
    assert "no effect" in err
    monkeypatch.setenv("FACETOR_THREADS", "1")
    rc, _, err = run_cli(capsys, "validate", docs["cstar2"])
    assert rc == 0
    assert err == ""
    monkeypatch.setenv("FACETOR_THREADS", "zero")
    assert run_cli(capsys, "validate", docs["cstar2"])[0] == 2


def test_table_output_deterministic(capsys, docs):
    first = run_cli(capsys, "mult", docs["cstar2"], "--compare")
    second = run_cli(capsys, "mult", docs["cstar2"], "--compare")
    assert first == second


# ---------------------------------------------------------------------------
# Outputs frozen byte for byte: validate on stdout and stderr, the
# structured tor, map and mult --compare documents, and the invalid-input
# reports of tor and map.

def frozen_json(doc):
    """The bytes of a structured document, spelled by the standard
    library: sorted keys, two-space indent, one final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


BAD_PROBLEM = ("characteristic vectors on face '{v}' do not extend to a "
               "lattice basis")
FLIP_PROBLEMS = (
    "A maps vertex 'v' to [1, 1, -1], which is not an integer combination "
    "of the vectors on '{v}'",
    "A maps vertex 'w' to [-1, -1, 1], which is not an integer combination "
    "of the vectors on '{w}'")
CSTAR2_DATA = {
    "facets": [["v"], ["w"]], "lattice_rank": 3, "name": "cstar2-p1",
    "vertices": [{"chi": [1, 1, 1], "id": "v"},
                 {"chi": [-1, -1, -1], "id": "w"},
                 {"chi": [1, 0, 0], "ghost": True, "id": "g1"},
                 {"chi": [0, 1, 0], "ghost": True, "id": "g2"}]}
# two points whose rays span a sublattice of index 2: Z/2 in total degree 2
LENS_DATA = {
    "facets": [["v"], ["w"]], "lattice_rank": 2, "name": "lens",
    "vertices": [{"chi": [1, 0], "id": "v"}, {"chi": [1, 2], "id": "w"}]}


def flip_document(tmp_path):
    """cstar2 to itself by a lattice map that sends each ray to a vector
    outside its cone: the carrier check fails on both vertices."""
    data = data_cstar2()
    phi = ToricMorphism(data, data, [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
                        {e: e for e in data.poset.elements}, name="flip")
    return write(tmp_path, "flip.json", morphism_document(phi))


def test_validate_frozen(capsys, tmp_path, docs):
    flip = flip_document(tmp_path)
    bad_in = "problem in %s: %s\n" % (docs["bad"], BAD_PROBLEM)
    cases = [
        ([docs["cstar2"]], 0,
         "ok: characteristic data 'cstar2-p1' (4 vertices, 2 ghost, "
         "lattice rank 3, 3 poset elements)\n"),
        ([docs["bad"]], 1, "problem: %s\n" % BAD_PROBLEM),
        ([docs["rebased"], docs["cstar2"], docs["bc"]], 0,
         "ok: morphism 'basis-change' from 'cstar2-p1 rebased' to "
         "'cstar2-p1'\n"),
        ([docs["bad"], docs["cstar2"], docs["bc"]], 1, bad_in),
        ([docs["cstar2"], docs["bad"], docs["bc"]], 1, bad_in),
        ([docs["cstar2"], docs["cstar2"], flip], 1,
         "".join("problem: %s\n" % p for p in FLIP_PROBLEMS)),
    ]
    for files, rc, out in cases:
        assert run_cli(capsys, "validate", *files) == (rc, out, ""), files


def test_validate_checks_each_data_document_before_reading_the_next(
        capsys, tmp_path, docs):
    # the order of map: an invalid source wins over a missing target
    missing = str(tmp_path / "missing.json")
    bad_in = "problem in %s: %s\n" % (docs["bad"], BAD_PROBLEM)
    assert run_cli(capsys, "validate", docs["bad"], missing,
                   docs["bc"]) == (1, bad_in, "")
    assert run_cli(capsys, "map", docs["bad"], missing, docs["bc"]) == (
        1, "", "invalid %s: %s\n" % (docs["bad"], BAD_PROBLEM))
    rc, out, err = run_cli(capsys, "validate", docs["cstar2"], missing,
                           docs["bc"])
    assert (rc, out) == (2, "") and err.startswith("error: cannot read")


def test_invalid_input_reports_frozen(capsys, tmp_path, docs):
    flip = flip_document(tmp_path)
    bad = "invalid %s: %s\n" % (docs["bad"], BAD_PROBLEM)
    for command in ("tor", "mult", "omega"):
        assert run_cli(capsys, command, docs["bad"]) == (1, "", bad)
    assert run_cli(capsys, "map", docs["bad"], docs["cstar2"],
                   docs["bc"]) == (1, "", bad)
    assert run_cli(capsys, "map", docs["cstar2"], docs["cstar2"], flip) == (
        1, "", "".join("invalid %s: %s\n" % (flip, p) for p in FLIP_PROBLEMS))


def test_tor_structured_frozen(capsys, docs):
    def entry(j, t, rank, torsion=()):
        return {"bidegree": [j, t], "rank": rank, "torsion": list(torsion)}

    def total(d, rank, torsion=()):
        return {"rank": rank, "torsion": list(torsion), "total": d}

    assert run_cli(capsys, "tor", docs["cstar2"], "--format",
                   "structured") == (0, frozen_json({
                       "coefficients": "q", "data": CSTAR2_DATA,
                       "document": "tor-table",
                       "entries": [entry(0, 0, 1), entry(0, 2, 1),
                                   entry(-1, 2, 2), entry(-1, 4, 2),
                                   entry(-2, 4, 1), entry(-2, 6, 1)],
                       "max_total_degree": 7, "name": "cstar2-p1",
                       "totals": [total(0, 1), total(1, 2), total(2, 2),
                                  total(3, 2), total(4, 1)]}), "")


def test_tor_structured_torsion_frozen(capsys, tmp_path):
    path = write(tmp_path, "lens.json", LENS_DATA)
    assert run_cli(capsys, "tor", path, "--coeffs", "z", "--format",
                   "structured") == (0, frozen_json({
                       "coefficients": "z", "data": LENS_DATA,
                       "document": "tor-table",
                       "entries": [
                           {"bidegree": [0, 0], "rank": 1, "torsion": []},
                           {"bidegree": [0, 2], "rank": 0, "torsion": [2]},
                           {"bidegree": [-1, 4], "rank": 1, "torsion": []}],
                       "max_total_degree": 4, "name": "lens",
                       "totals": [
                           {"rank": 1, "torsion": [], "total": 0},
                           {"rank": 0, "torsion": ["Z/2"], "total": 2},
                           {"rank": 1, "torsion": [], "total": 3}]}), "")


def test_map_power_structured_frozen(capsys, tmp_path, docs):
    path = power2_document(tmp_path)

    def images(lines):
        return [dict(zip(("generator", "image"), line.strip().split(" -> ")))
                for line in lines]

    frozen = MAP_POWER_2.splitlines()
    assert run_cli(capsys, "map", docs["cstar2"], docs["cstar2"], path,
                   "--format", "structured", "--show-hatq") == (
        0, frozen_json({"coefficients": "q", "document": "induced-map",
                        "hatq": frozen[2:5], "max_total_degree": 7,
                        "name": "power-map:2", "source": "cstar2-p1",
                        "target": "cstar2-p1",
                        "twisted": images(frozen[15:23]),
                        "untwisted": images(frozen[6:14])}), "")


def test_mult_compare_agreeing_structured_frozen(capsys, tmp_path):
    fan = {"name": "cp2", "fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                                  "cones": [[0, 1], [1, 2], [0, 2]]}}
    path = write(tmp_path, "cp2.json", fan)
    assert run_cli(capsys, "mult", path, "--compare", "--format",
                   "structured") == (0, frozen_json({
                       "coefficients": "q",
                       "data": {"facets": [["r0", "r1"], ["r0", "r2"],
                                           ["r1", "r2"]],
                                "lattice_rank": 2, "name": "cp2",
                                "vertices": [{"chi": [1, 0], "id": "r0"},
                                             {"chi": [0, 1], "id": "r1"},
                                             {"chi": [-1, -1], "id": "r2"}]},
                       "differences": [], "document": "product-comparison",
                       "max_total_degree": 5, "name": "cp2"}), "")


# the vertices a, b, and g marked ghost; the vertex list of element or
# facet 1 is [b, BAD], so every error names entry [1][1]
VERTEX_LIST_VERTICES = [{"id": "a", "chi": [1, 0]}, {"id": "b", "chi": [0, 1]},
                        {"id": "g", "chi": [1, 1], "ghost": True}]
VERTEX_LIST_ERRORS = [
    ("zz", "unknown vertex 'zz'"),
    ("g", "vertex 'g' is marked ghost"),
    (7, "expected a string"),
]


@pytest.mark.parametrize("bad, message", VERTEX_LIST_ERRORS)
def test_facets_vertex_list_errors_frozen(capsys, tmp_path, bad, message):
    path = write(tmp_path, "facets.json", {
        "name": "bad-facets", "lattice_rank": 2,
        "vertices": VERTEX_LIST_VERTICES, "facets": [["a"], ["b", bad]]})
    assert run_cli(capsys, "validate", path) == (
        2, "", "error: %s.facets[1][1]: %s\n" % (path, message))


@pytest.mark.parametrize("bad, message", VERTEX_LIST_ERRORS)
def test_elements_vertex_list_errors_frozen(capsys, tmp_path, bad, message):
    path = write(tmp_path, "elements.json", {
        "name": "bad-elements", "lattice_rank": 2,
        "vertices": VERTEX_LIST_VERTICES,
        "elements": [{"id": "A", "vertices": ["a"], "covers": []},
                     {"id": "B", "vertices": ["b", bad], "covers": []}]})
    assert run_cli(capsys, "validate", path) == (
        2, "", "error: %s.elements[1].vertices[1]: %s\n" % (path, message))


@pytest.mark.parametrize("shape", ["facets", "elements"])
def test_unused_vertex_error_frozen(capsys, tmp_path, shape):
    doc = {"name": "unused", "lattice_rank": 2,
           "vertices": VERTEX_LIST_VERTICES[:2]
           + [{"id": "c", "chi": [-1, -1]}]}
    if shape == "facets":
        doc["facets"] = [["a", "b"]]
    else:
        doc["elements"] = [{"id": "A", "vertices": ["a"], "covers": []},
                           {"id": "B", "vertices": ["b"], "covers": []}]
    path = write(tmp_path, "unused.json", doc)
    assert run_cli(capsys, "validate", path) == (
        2, "", "error: %s.vertices[2]: vertex 'c' appears nowhere; "
        "mark it ghost\n" % path)


def test_fan_ray_in_no_cone_must_be_a_ghost(capsys, tmp_path):
    # a ray outside every cone is a ghost only when ghost_rays says so, as
    # a vertex in no facet is a ghost only when it is marked ghost
    fan = {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1]]}
    path = write(tmp_path, "open.json", {"name": "open", "fan": fan})
    error = ("error: %s.fan.rays[2]: ray 2 lies in no cone; list it in "
             "ghost_rays\n" % path)
    for command in ("validate", "tor"):
        assert run_cli(capsys, command, path) == (2, "", error)
    ghost = write(tmp_path, "ghost.json", {
        "name": "ghost", "fan": dict(fan, ghost_rays=[2])})
    assert run_cli(capsys, "validate", ghost) == (
        0, "ok: characteristic data 'ghost' (3 vertices, 1 ghost, lattice "
        "rank 2, 4 poset elements)\n", "")
