import atexit
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commprob.cli import (
    GroupFileError,
    format_group_file,
    main,
    parse_group_file,
)
import commprob
from commprob import theorems
from commprob.constructors import ActionSpec, cyclic, named, semidirect_product
from commprob.isoclinism import find_isoclinism
from commprob.perm import Permutation, generate_group

from oracles import are_isomorphic

A4_FILE = "4\n1 2 0 3\n1 0 3 2\n"

# SHA-256 of `verify --all --format json` stdout; outputs are fixed, so any
# change to this value is a regression, not an update
VERIFY_ALL_SHA256 = "aea612bbe96f71fa48e646a27ca317b54ccbffa15140b33f52957ac558349665"

# SHA-256 of `<argv> --format table` stdout, fixed as above: `verify --all`
# prints a header per group and the summary, D8's `analyze` has HOLDS,
# VACUOUS and SKIP verdict lines
TABLE_SHA256 = {
    ("verify", "--all"): "b84bd62efa08de45d8162ae6b3d0cdf89f019502edd5369a543d29014739f435",
    ("analyze", "--name", "D8"): "318f965507bc4dea5c8075949c01b1bde7b16a26af591b9b00b393dad22d2de9",
}

# SHA-256 of `analyze <path> <args>` stdout for group files outside the
# catalog, by the relative path read (the report's name is that path);
# outputs are fixed as above.  S6's path and hash are those of the
# benchmark's seed-0 `s6` run; C2^6 and D1000 are CI's smoke-test files.
ANALYZE_GOLDEN = {
    ".perfbench_work/s6.grp": (
        "6\n1 2 3 4 5 0\n1 0 2 3 4 5\n",
        (),
        "b001ac90d142f6e3e4b3fe3728ce8bf9dd623a486f875801056b47994cad9d1d",
    ),
    "c2_5.grp": (  # C2^5: five disjoint transpositions of 10 points
        "10\n"
        "1 0 2 3 4 5 6 7 8 9\n"
        "0 1 3 2 4 5 6 7 8 9\n"
        "0 1 2 3 5 4 6 7 8 9\n"
        "0 1 2 3 4 5 7 6 8 9\n"
        "0 1 2 3 4 5 6 7 9 8\n",
        (),
        "596d47467187a3e43518697e8a09af44c3a79a611786151893006e27105edd6a",
    ),
    "c2_6.grp": (  # C2^6: six disjoint transpositions of 12 points
        "12\n" + "".join(
            " ".join(map(str, [*range(2 * i), 2 * i + 1, 2 * i, *range(2 * i + 2, 12)])) + "\n"
            for i in range(6)
        ),
        (),
        "a60e2ce63985da92312f48b9d300afa253e694328f550501e553ed2cbf180cbf",
    ),
    "d1000.grp": (  # dihedral of order 1000: i -> i + 1 and i -> -i mod 500
        "500\n"
        + " ".join(str((i + 1) % 500) for i in range(500)) + "\n"
        + " ".join(str(-i % 500) for i in range(500)) + "\n",
        (),
        "a9d306fae3c27ce131f4ece27d5265c7aa053f61ed1e909531d5d9d31bf7327c",
    ),
    "s7.grp": (
        "7\n1 2 3 4 5 6 0\n1 0 2 3 4 5 6\n",
        ("--max-order", "5040"),
        "a6dc60c3ff18780d6b325d9b0854b5ed299f3ad7f5c5f06327bdc834a58ecefc",
    ),
}


# -- group files -----------------------------------------------------------------


def test_parse_simple():
    degree, gens = parse_group_file("3\n1 2 0\n")
    assert degree == 3
    assert [g.images for g in gens] == [(1, 2, 0)]


def test_parse_a4_file(cat):
    degree, gens = parse_group_file(A4_FILE)
    G = generate_group(degree, gens)
    assert G.order == 12
    assert are_isomorphic(G, cat["A4"])


def test_parse_comments_and_blanks():
    text = "# a comment\n\n3  # degree\n1 2 0\n\n# done\n"
    degree, gens = parse_group_file(text)
    assert degree == 3 and len(gens) == 1


def test_parse_not_a_bijection():
    with pytest.raises(GroupFileError) as err:
        parse_group_file("3\n1 1 0\n")
    assert err.value.line == 2
    assert "bijection" in str(err.value)


def test_parse_wrong_width():
    with pytest.raises(GroupFileError) as err:
        parse_group_file("3\n1 2\n")
    assert err.value.line == 2


def test_parse_empty():
    with pytest.raises(GroupFileError):
        parse_group_file("# nothing here\n")


def test_parse_bad_degree():
    with pytest.raises(GroupFileError) as err:
        parse_group_file("x\n")
    assert err.value.line == 1


def test_round_trip(cat):
    for name in ("S3", "A4", "Q8", "C7:C3"):
        G = cat[name]
        degree, gens = parse_group_file(format_group_file(G))
        H = generate_group(degree, gens)
        assert are_isomorphic(G, H), name


def test_round_trip_trivial():
    G = generate_group(1, [])
    degree, gens = parse_group_file(format_group_file(G))
    assert degree == 1 and gens == []


# SHA-256 over `format_group_file` of every catalog group, each preceded by
# its key; outputs are fixed, so any change to this value is a regression
CATALOG_FILES_SHA256 = "22db0743579d09710a67fe4a616f044ac8b9a0a934a1a078fe83b69f5a69497e"


def test_catalog_group_files_pinned(cat):
    digest = hashlib.sha256()
    for name, G in cat.items():
        digest.update(name.encode() + b"\n" + format_group_file(G).encode())
    assert digest.hexdigest() == CATALOG_FILES_SHA256


def test_group_file_builds_only_the_generators(monkeypatch):
    # C250 : C4, the generator of C4 inverting C250: a group given by rows,
    # printed from the permutations of its two generators, not of its 1000
    # elements (each of degree 1000)
    N, H = cyclic(250), cyclic(4)
    G = semidirect_product(N, H, ActionSpec((1,), (tuple(-a % 250 for a in range(250)),)))
    assert G.order == 1000 and len(G.generating_indices()) == 2
    built = [0]
    init = Permutation.__init__

    def counting_init(self, images):
        built[0] += 1
        init(self, images)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    text = format_group_file(G)
    assert built[0] <= len(G.generating_indices())
    monkeypatch.undo()
    lines = text.splitlines()
    assert lines[0] == "1000"
    assert lines[1:] == [" ".join(map(str, G.elements[g].images)) for g in G.generating_indices()]


# -- commands --------------------------------------------------------------------


def test_analyze_name(capsys):
    assert main(["analyze", "--name", "A4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == "1/3"
    assert report["name"] == "A4"


def test_analyze_375(capsys):
    assert main(["analyze", "--name", "(C5xC5):C15"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == "23/375"


def test_analyze_file(tmp_path, capsys):
    path = tmp_path / "a4.grp"
    path.write_text(A4_FILE)
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 12


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text("3\n1 1 0\n")
    assert main(["analyze", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@st.composite
def group_files(draw):
    """A degree of at most 6, then up to 4 data lines of digits, '-', '#',
    letters and blanks, some of them permutations of the points."""
    degree = draw(st.integers(1, 6))
    line = st.one_of(
        st.text("0123456789-# abZ", max_size=16),
        st.permutations(range(degree)).map(lambda p: " ".join(map(str, p))),
    )
    return "\n".join([str(degree), *draw(st.lists(line, max_size=4))]) + "\n"


@given(group_files())
@settings(deadline=None, max_examples=100)
def test_analyze_any_small_group_file_exits_0_or_2(text):
    # at most S6 (order 720) can arise; a refused file is one error line
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.grp")
        Path(path).write_text(text)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["analyze", path])
    assert code in (0, 2) and "Traceback" not in err.getvalue(), (code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), err.getvalue()


def test_analyze_refuses_a_degree_above_the_limit_exit_2(tmp_path, capsys):
    # refused before the closure builds its first permutation of that degree
    path = tmp_path / "huge.grp"
    path.write_text("65537\n")
    assert main(["analyze", str(path)]) == 2
    assert _single_line_error(capsys) == "error: line 1: degree 65537 exceeds the limit of 65536\n"


def test_analyze_unknown_name_exit_2(capsys):
    assert main(["analyze", "--name", "M24"]) == 2
    assert "unknown catalog key" in capsys.readouterr().err


def test_analyze_requires_exactly_one_source(capsys):
    assert main(["analyze"]) == 2


def test_verify_single_theorem(capsys):
    code = main(
        ["verify", "--theorem", "class-size", "--s", "4", "--name", "A4", "--normal", "klein"]
    )
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["applicable"] and verdict["holds"]


def test_verify_odd_on_even_group(capsys):
    assert main(["verify", "--theorem", "odd", "--name", "A4"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert not verdict["applicable"]
    assert "even order" in verdict["note"]


def test_verify_oracle_theorem(capsys):
    assert main(["verify", "--theorem", "oracle", "--name", "Q8"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["holds"] and verdict["note"] == "d=5/8"


def test_verify_named_group(capsys):
    assert main(["verify", "--name", "S4", "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # one report + summary
    assert json.loads(lines[0])["name"] == "S4"
    assert json.loads(lines[1])["summary"]["failures"] == 0


def test_verify_normal_selector_errors(capsys):
    assert main(["verify", "--theorem", "klein", "--name", "C2xC2xC2", "--normal", "4"]) == 2
    assert "matches" in capsys.readouterr().err


@pytest.mark.parametrize("name, order, skip", [
    ("C2xC2xC2", 8, "N is the whole group"),
    ("S3", 1, "N is trivial"),
])
def test_class_size_names_a_whole_or_trivial_n_without_the_lattice(
    name, order, skip, monkeypatch, capsys
):
    def refuse(G):
        raise AssertionError("the normal-subgroup lattice was built")

    monkeypatch.setattr(theorems, "normal_subgroups", refuse)
    argv = ["verify", "--theorem", "class-size", "--normal", "center", "--name", name]
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join([
        "{",
        f'  "name": "{name}",',
        f'  "statement": "d>1/4:class-in-N;N=order{order}",',
        '  "applicable": false,',
        '  "holds": true,',
        '  "precondition_ok": false,',
        f'  "note": "precondition: {skip}"',
        "}\n",
    ])


def test_verify_unknown_name_exit_2(capsys):
    assert main(["analyze", "--name", "NOPE"]) == 2
    analyze_err = _single_line_error(capsys)
    assert main(["verify", "--name", "NOPE"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == analyze_err
    assert analyze_err.startswith("error: unknown catalog key 'NOPE'")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--name", "A4", "a4.grp"], "exactly one of a catalog --name or a group file path"),
        (["verify", "--all", "--name", "A4"], "--all takes no --name or group file path"),
        (["verify", "--all", "a4.grp"], "--all takes no --name or group file path"),
    ],
    ids=["name-and-path", "all-and-name", "all-and-path"],
)
def test_verify_refuses_a_second_source_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("a4.grp").write_text(A4_FILE)
    assert main(argv) == 2
    assert message in _single_line_error(capsys)


def test_verify_all_refuses_a_theorem_selector_exit_2(capsys):
    # --all always runs every theorem on every catalog group
    assert main(["verify", "--all", "--theorem", "5/16"]) == 2
    assert "verify --all runs every theorem; it takes no --theorem" in _single_line_error(capsys)


def test_isoclinic_command(capsys):
    assert main(["isoclinic", "--name", "C2xA4", "--name2", "A4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["isoclinic"] is True

    assert main(["isoclinic", "--name", "A4", "--name2", "S3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["isoclinic"] is False

    assert main(["isoclinic", "--name", "A4", "--name2", "A4", "--witness"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["isoclinic"] and "witness" in out


def test_isoclinic_group_files(tmp_path, capsys):
    a4 = tmp_path / "a4.grp"
    a4.write_text(A4_FILE)
    c2a4 = tmp_path / "c2a4.grp"
    c2a4.write_text("6\n1 2 0 3 4 5\n1 0 3 2 4 5\n0 1 2 3 5 4\n")
    s3 = tmp_path / "s3.grp"
    s3.write_text("3\n1 0 2\n1 2 0\n")
    assert main(["isoclinic", str(c2a4), str(a4)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"first": str(c2a4), "second": str(a4), "isoclinic": True}
    assert main(["isoclinic", str(a4), str(s3)]) == 0
    assert json.loads(capsys.readouterr().out)["isoclinic"] is False


def test_isoclinic_name_and_one_file_reads_the_file_as_second(tmp_path, capsys):
    a4 = tmp_path / "a4.grp"
    a4.write_text(A4_FILE)
    assert main(["isoclinic", "--name", "C2xA4", str(a4)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"first": "C2xA4", "second": str(a4), "isoclinic": True}


@pytest.mark.parametrize(
    "argv",
    [
        ["isoclinic", "--name", "A4", "a4.grp", "s3.grp"],
        ["isoclinic", "--name", "A4", "a4.grp", "--name2", "S3"],
    ],
    ids=["name-and-two-paths", "name-path-and-name2"],
)
def test_isoclinic_name_with_a_first_path_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("a4.grp").write_text(A4_FILE)
    Path("s3.grp").write_text("3\n1 0 2\n1 2 0\n")
    assert main(argv) == 2
    assert "exactly one of a catalog --name or a group file path" in _single_line_error(capsys)


def test_isoclinic_without_first_group_exit_2(capsys):
    assert main(["isoclinic", "--name2", "A4"]) == 2
    assert "exactly one of a catalog --name or a group file path" in _single_line_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["isoclinic", "a4.grp", "s3.grp", "--name2", "A4"],
        ["isoclinic", "a4.grp"],
        ["isoclinic", "--name", "A4"],
        ["isoclinic"],
    ],
    ids=["path2-and-name2", "one-path", "one-name", "none"],
)
def test_isoclinic_needs_exactly_one_second_group_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("a4.grp").write_text(A4_FILE)
    Path("s3.grp").write_text("3\n1 0 2\n1 2 0\n")
    assert main(argv) == 2
    message = "exactly one of a catalog --name2 or a second group file path"
    assert message in _single_line_error(capsys)


@pytest.mark.parametrize(
    "first, second, witness",
    [
        (
            "C2xA4",
            "A4",
            {"quotient_iso": [0, 9, 5, 3, 1, 7, 2, 6, 11, 10, 4, 8], "derived_iso": [0, 1, 3, 2]},
        ),
        ("D8", "Q8", {"quotient_iso": [0, 2, 3, 1], "derived_iso": [0, 1]}),
    ],
)
def test_isoclinic_witness_pinned(first, second, witness, capsys):
    # the first witness in canonical search order; a reordered search changes it
    assert main(["isoclinic", "--name", first, "--name2", second, "--witness"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"first": first, "second": second, "isoclinic": True, "witness": witness}


def test_isoclinic_file_pair_witness_pinned(tmp_path, monkeypatch, capsys):
    # S6 against S6 x C2 (the transposition (6 7) added on 8 points)
    monkeypatch.chdir(tmp_path)
    Path("s6.grp").write_text("6\n1 2 3 4 5 0\n1 0 2 3 4 5\n")
    Path("s6c2.grp").write_text("8\n1 2 3 4 5 0 6 7\n1 0 2 3 4 5 6 7\n0 1 2 3 4 5 7 6\n")
    assert main(["isoclinic", "s6.grp", "s6c2.grp", "--witness"]) == 0
    out = capsys.readouterr().out
    sha = "e50770f11b4482ece77471b7bb0f5c92358496114df919eafaac3529667af274"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


# SHA-256 of the first isoclinism witness, or None, for every ordered pair of
# catalog groups of order at most 75; fixed as the witnesses above
CATALOG_PAIR_WITNESSES_SHA256 = "7d8c5d478cd677665090f856d543aba0c83f4d80734031f348cf69573c119856"


def test_catalog_pair_witnesses_pinned(cat):
    names = [name for name, G in cat.items() if G.order <= 75]
    pairs = []
    for a in names:
        for b in names:
            w = find_isoclinism(cat[a], cat[b])
            pairs.append([a, b, w and [list(w.quotient_iso), list(w.derived_iso)]])
    assert sum(p[2] is not None for p in pairs) == 343
    blob = json.dumps(pairs, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == CATALOG_PAIR_WITNESSES_SHA256


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    entries = json.loads(capsys.readouterr().out)
    names = [e["name"] for e in entries]
    assert "A4" in names and "(C5xC5):C15" in names
    assert len(names) >= 20


def test_construct_semidirect_builds_a4(tmp_path, capsys):
    action = tmp_path / "rot.act"
    # C2xC2 canonical indices: 0 identity, 1..3 the involutions; cycle them
    action.write_text("4\n0 2 3 1\n")
    out = tmp_path / "product.grp"
    code = main(
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3",
         "--action", str(action), "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (
        b"12\n6 7 8 9 10 11 0 1 2 3 4 5\n3 4 5 0 1 2 9 10 11 6 7 8\n"
        b"1 2 0 7 8 6 10 11 9 4 5 3\n"
    )
    degree, gens = parse_group_file(out.read_text())
    G = generate_group(degree, gens)
    assert G.order == 12
    assert are_isomorphic(G, named("A4"))


def test_construct_semidirect_from_group_files(tmp_path, capsys):
    n_file = tmp_path / "v4.grp"
    n_file.write_text("4\n1 0 3 2\n2 3 0 1\n")
    h_file = tmp_path / "c3.grp"
    h_file.write_text("3\n1 2 0\n")
    action = tmp_path / "rot.act"
    action.write_text("4\n0 2 3 1\n")  # cycles the three involutions
    out = tmp_path / "product.grp"
    code = main(
        ["construct", "semidirect", "--n", str(n_file), "--h", str(h_file),
         "--action", str(action), "--out", str(out)]
    )
    assert code == 0
    degree, gens = parse_group_file(out.read_text())
    assert are_isomorphic(generate_group(degree, gens), named("A4"))


def test_construct_describe(capsys):
    # C2xC2 is a direct product: its element indexing and generators are pinned
    assert main(["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--describe"]) == 0
    assert capsys.readouterr().out == (
        "# N: order 4; element index -> images\n"
        "#   0: 0 1 2 3\n"
        "#   1: 0 1 3 2\n"
        "#   2: 1 0 2 3\n"
        "#   3: 1 0 3 2\n"
        "# H: order 3; acting generator indices: [1]\n"
        "# action file: first line |N|, then one image line per acting generator\n"
    )


def test_construct_rejects_bad_action(tmp_path, capsys):
    action = tmp_path / "bad.act"
    action.write_text("4\n1 0 2 3\n")  # moves the identity: not an automorphism
    code = main(
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--action", str(action)]
    )
    assert code == 2
    assert "automorphism" in capsys.readouterr().err


def _single_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_construct_rejects_a_generator_acting_two_ways(tmp_path, capsys):
    action = tmp_path / "two.act"
    action.write_text("4\n0 2 3 1\n0 3 1 2\n")  # the generator 1 of C3, twice
    code = main(
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3",
         "--h-gens", "1,1", "--action", str(action)]
    )
    assert code == 2
    assert "homomorphism" in _single_line_error(capsys)


def test_construct_action_size_not_integer_exit_2(tmp_path, capsys):
    action = tmp_path / "bad.act"
    action.write_text("four\n0 2 3 1\n")
    code = main(
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--action", str(action)]
    )
    assert code == 2
    assert _single_line_error(capsys).startswith("error: line 1:")


def test_construct_h_gens_not_integer_exit_2(tmp_path, capsys):
    action = tmp_path / "rot.act"
    action.write_text("4\n0 2 3 1\n")
    code = main(
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3",
         "--h-gens", "1,x", "--action", str(action)]
    )
    assert code == 2
    assert "--h-gens" in _single_line_error(capsys)


def test_construct_h_gens_empty_exit_2(tmp_path, capsys):
    # an empty list is refused, not read as "H's own generators"
    action = tmp_path / "rot.act"
    action.write_text("4\n0 2 3 1\n")
    code = main(
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3",
         "--h-gens", "", "--action", str(action)]
    )
    assert code == 2
    assert "--h-gens must be indices in 0..2, not ''" in _single_line_error(capsys)


def test_construct_h_gens_out_of_range_exit_2(capsys):
    code = main(
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--h-gens", "99", "--describe"]
    )
    assert code == 2
    assert "0..2" in _single_line_error(capsys)


def test_group_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.grp"
    path.write_bytes(b"# gr\xfcppe\n3\n1 2 0\n")
    assert main(["analyze", str(path)]) == 2
    assert "utf-8" in _single_line_error(capsys)


def test_action_file_not_utf8_exit_2(tmp_path, capsys):
    action = tmp_path / "latin1.act"
    action.write_bytes(b"# \xe9\n4\n0 2 3 1\n")
    code = main(
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--action", str(action)]
    )
    assert code == 2
    assert "utf-8" in _single_line_error(capsys)


@pytest.mark.parametrize("s", ["1", "0", "-3"])
def test_class_size_s_below_2_exit_2(s, capsys):
    code = main(
        ["verify", "--theorem", "class-size", "--s", s, "--name", "A4", "--normal", "klein"]
    )
    assert code == 2
    assert _single_line_error(capsys).startswith("error: --s")


def test_verify_subset_byte_identical(capsys):
    # full determinism over the whole catalog is exercised in the acceptance
    # suite; spot-check a subset here
    assert main(["verify", "--name", "A4", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--name", "A4", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_all_golden_output(capsys):
    assert main(["verify", "--all", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_ALL_SHA256


@pytest.mark.parametrize("path", sorted(ANALYZE_GOLDEN))
def test_analyze_golden_output(path, tmp_path, monkeypatch, capsys):
    text, args, sha = ANALYZE_GOLDEN[path]
    monkeypatch.chdir(tmp_path)
    Path(path).parent.mkdir(exist_ok=True)
    Path(path).write_text(text)
    assert main(["analyze", path, *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


def _recording_generate_group(monkeypatch) -> list:
    """The groups the CLI closes from files, recorded as it builds them."""
    groups = []
    monkeypatch.setattr(commprob.cli, "generate_group", lambda *a, **k: groups.append(
        generate_group(*a, **k)) or groups[-1])
    return groups


def _rows_built(G) -> int:
    return sum(r is not None for r in G._rows)


def test_analyze_s6_builds_no_table(tmp_path, monkeypatch, capsys):
    # S6 read from a file: every statement is decided from rows and columns
    # built on first use, fewer than 360 of the 2 * 720 in all
    text, args, sha = ANALYZE_GOLDEN[".perfbench_work/s6.grp"]
    for key in ("A4", "(C5xC5):C3"):
        named(key)  # built before the count
    groups = _recording_generate_group(monkeypatch)
    monkeypatch.chdir(tmp_path)
    Path("s6.grp").write_text(text)
    assert main(["analyze", "s6.grp", *args]) == 0
    (G,) = groups
    assert G.order == 720
    assert _rows_built(G) + sum(c is not None for c in G._cols) < 360
    capsys.readouterr()


def test_isoclinic_reads_rows_of_few_elements(tmp_path, monkeypatch, capsys):
    # S6 against S6 x C2, witness and all: the isomorphism search and the walk
    # over the derived subgroups read generators' rows and columns, and the
    # rows of fewer than |H| elements of either group are ever built
    groups = _recording_generate_group(monkeypatch)
    monkeypatch.chdir(tmp_path)
    Path("s6.grp").write_text("6\n1 2 3 4 5 0\n1 0 2 3 4 5\n")
    Path("s6c2.grp").write_text("8\n1 2 3 4 5 0 6 7\n1 0 2 3 4 5 6 7\n0 1 2 3 4 5 7 6\n")
    assert main(["isoclinic", "s6.grp", "s6c2.grp", "--witness"]) == 0
    assert json.loads(capsys.readouterr().out)["isoclinic"] is True
    G, H = groups
    assert (G.order, H.order) == (720, 1440)
    assert _rows_built(G) < G.order and _rows_built(H) < H.order


def test_out_of_memory_exits_2_with_one_line(tmp_path):
    # an address-space limit above what Python needs to start and import the
    # package, far below what closing C5000 on 5,000 points needs (about
    # 200 MB of image tuples): the MemoryError is an input error, not a
    # failed verdict, and no traceback reaches stderr
    resource = pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(Path(commprob.__file__).parents[1]))
    probe = "import commprob.cli; print(open('/proc/self/status').read())"
    status = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout
    vm_peak_kb = int(next(line for line in status.splitlines()
                          if line.startswith("VmPeak:")).split()[1])
    limit = (vm_peak_kb + 40_000) * 1024
    n = 5000
    (tmp_path / "c5000.grp").write_text(f"{n}\n" + " ".join(str((i + 1) % n) for i in range(n)))
    run = subprocess.run(
        [sys.executable, "-m", "commprob.cli", "analyze", "c5000.grp"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("cap", ["0", "-5", "65537", "100000"])
def test_max_order_outside_16_bit_range_exit_2(cap, capsys):
    assert main(["analyze", "--name", "A4", "--max-order", cap]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --max-order") and err.count("\n") == 1


def test_max_order_caps_catalog_groups_exit_2(tmp_path, monkeypatch, capsys):
    # a catalog group above the cap is refused as the same group from a file
    # is, before anything reaches stdout; the largest catalog group has 375
    monkeypatch.chdir(tmp_path)
    Path("s4.grp").write_text("4\n1 2 3 0\n1 0 2 3\n")
    refused = [
        ["analyze", "s4.grp", "--max-order", "3"],
        ["analyze", "--name", "S4", "--max-order", "3"],
        ["isoclinic", "--name", "S4", "--name2", "A4", "--max-order", "3"],
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--describe", "--max-order", "3"],
        ["verify", "--all", "--max-order", "3"],
        ["verify", "--all", "--max-order", "374"],
    ]
    for argv in refused:
        assert main(argv) == 2, argv
        error = f"error: group closure exceeded the order cap of {argv[-1]}\n"
        assert capsys.readouterr() == ("", error), argv
    assert main(["verify", "--all", "--format", "json", "--max-order", "375"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_ALL_SHA256


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_oracle_cap_below_one_exit_2(cap, capsys):
    argv = ["verify", "--name", "C4", "--theorem", "oracle", "--oracle-cap", cap]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --oracle-cap must be at least 1, not {cap}\n"


def test_each_command_takes_only_the_options_it_reads(capsys):
    dead = [
        ["analyze", "--name", "A4", "--oracle-cap", "5"],
        ["isoclinic", "--name", "A4", "--name2", "C2xA4", "--oracle-cap", "5"],
        ["catalog", "list", "--oracle-cap", "5"],
        ["catalog", "list", "--max-order", "5"],
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--describe", "--oracle-cap", "5"],
        ["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--describe", "--format", "json"],
    ]
    for argv in dead:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert f"unrecognized arguments: {argv[-2]}" in err, argv
    # each command's kept option, set to its default, leaves the output as it is
    kept = [
        (["analyze", "--name", "A4"], ["--max-order", "5000"]),
        (["verify", "--theorem", "oracle", "--name", "Q8"], ["--oracle-cap", "500"]),
        (["isoclinic", "--name", "A4", "--name2", "C2xA4"], ["--format", "json"]),
        (["catalog", "list"], ["--format", "json"]),
        (["construct", "semidirect", "--n", "C2xC2", "--h", "C3", "--describe"],
         ["--max-order", "5000"]),
    ]
    for argv, option in kept:
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + option) == 0
        assert capsys.readouterr() == plain, option


def test_table_format(capsys):
    assert main(["analyze", "--name", "Q8", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "d: 5/8" in out
    assert "HOLDS" in out


@pytest.mark.parametrize("argv", sorted(TABLE_SHA256), ids=" ".join)
def test_table_golden_output(argv, capsys):
    assert main([*argv, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE_SHA256[argv]
    if argv[0] == "analyze":
        states = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
        assert states == {"HOLDS", "VACUOUS", "SKIP"}


@pytest.fixture
def no_branch_holds(monkeypatch):
    # no group is supersolvable and no two are isoclinic, so A4 (d = 1/3)
    # fails both d>5/16 and d>=1/3
    monkeypatch.setattr(theorems, "is_supersolvable", lambda G: False)
    monkeypatch.setattr(theorems, "are_isoclinic", lambda G, H, K=None: False)


def test_verify_failed_theorem_exit_1(no_branch_holds, capsys):
    assert main(["verify", "--theorem", "5/16", "--name", "A4"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["applicable"] and not verdict["holds"] and verdict["precondition_ok"]
    assert verdict["note"] == "no branch holds"


def test_verify_table_failures_exit_1(no_branch_holds, capsys):
    assert main(["verify", "--name", "A4", "--format", "table"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "== A4 (order 12, d=1/3)",
        "   FAIL d>5/16 no branch holds",
        "   FAIL d>=1/3 no branch holds",
        "summary: 1 groups, 19 verdicts, 13 applicable, 2 failures",
    ]
    reports = [theorems.analyze(named("A4"), name="A4")]
    assert theorems.summarize(reports)["failures"] == 2
    assert [v.statement for v in reports[0].theorem_verdicts if v.is_failure()] == [
        "d>5/16",
        "d>=1/3",
    ]


# what the `commprob` console script runs
ENTRY = "import sys; from commprob.cli import main; sys.exit(main())"


def _loaded_by_cli_import(modules: set[str]) -> str:
    # the CLI's import path is paid by every fresh process; -S keeps site
    # hooks (coverage, editable installs) from importing modules of their own
    env = {**os.environ, "PYTHONPATH": str(Path(commprob.__file__).parent.parent)}
    probe = f"import sys, commprob.cli; print(sorted({modules!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_dataclasses_or_inspect():
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == "[]"


def test_import_loads_no_pathlib():
    # files are read and written with the builtin open
    assert _loaded_by_cli_import({"pathlib"}) == "[]"


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("argv", [["analyze", "--name", "A4"], ["catalog", "list"]])
def test_closed_stdout_exit_2(argv, unbuffered):
    # buffered, the write fails at the final flush; unbuffered, inside print()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(commprob.__file__).parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_exit_hook_registered_once_and_nothing_frozen(monkeypatch, capsys):
    # main registers gc.freeze to run at exit, once however often it is
    # called; in-process callers keep collecting as before
    hooks = []

    def unregister(func):
        hooks[:] = [h for h in hooks if h != func]

    monkeypatch.setattr(atexit, "register", hooks.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    assert main(["catalog", "list"]) == 0
    assert main(["analyze", "--name", "A4"]) == 0
    assert hooks == [gc.freeze]
    assert gc.get_freeze_count() == 0
    capsys.readouterr()


def test_fresh_process_flushes_whole_output_with_exit_hook(tmp_path):
    # the console script's entry line, stdout a file: all of `verify --all`
    # reaches it, though the final collection at exit is skipped
    env = {**os.environ, "PYTHONPATH": str(Path(commprob.__file__).parent.parent)}
    with open(tmp_path / "out.json", "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, "verify", "--all", "--format", "json"],
            stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == VERIFY_ALL_SHA256
