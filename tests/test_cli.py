"""End-to-end runs of the command-line front end.

Each test drives `run` with a real argument vector and asserts on the exit
code and the printed report.  A few tests shell out to a fresh `forge`
process instead, where a fresh interpreter pins down stable-letter numbering
and lets two runs be compared byte for byte.
"""

import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from groupforge import cli
from groupforge.cli import (EXIT_FALSE, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK,
                            EXIT_UNDECIDED, run)

FP57 = """\
group g1 z5
group g2 z7
base b1 g1
base b2 g2
amalgam top b1 b2 shared 0=0
target top
"""

FP35 = """\
group g1 z3
group g2 z5
base b1 g1
base b2 g2
amalgam top b1 b2 shared 0=0
target top
"""

TWIST = """\
group gg s3xz2
base l gg
base r gg
amalgam top l r shared 0=0 1=1
target top
"""

HNN5 = """\
group g1 z5
base b g1
hnn top b assoc 0=0 1=2 2=4 3=1 4=3
target top
"""

HAT = """\
group h s3
hat top h
target top
"""

K4_TABLE = """\
group k4
order 4
table
0 1 2 3
1 0 3 2
2 3 0 1
3 2 1 0
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def put(name, text):
        p = d / name
        p.write_text(text)
        return str(p)

    return {
        "fp": put("fp.scheme", FP57),
        "z35": put("z35.scheme", FP35),
        "twist": put("twist.scheme", TWIST),
        "hnn5": put("hnn5.scheme", HNN5),
        "hat": put("hat.scheme", HAT),
        "b6": put("b6.scheme", "group g z6\nbase b g\ntarget b\n"),
        "bad_scheme": put("bad.scheme", "group g1 z5\nbase b1 nosuch\n"),
        "k4": put("k4.grp", K4_TABLE),
        "bad_grp": put("bad.grp", "group g order 3\ntable\n0 1 2\n1 2 0\n"),
        "eta22": put("eta22.hom", "src z2\ndst z2\nmap 0 1\n"),
        "eta24": put("eta24.hom", "hom eta\nsrc z2\ndst z4\nmap 0 2\n"),
        "badmap": put("badmap.hom", "src z2\ndst z4\nmap 0 9\n"),
        "baddir": put("baddir.hom", "src z2\nfrobnicate\nmap 0 1\n"),
    }


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def forge_bin():
    """(command prefix, environment) for a fresh `forge` process: the
    installed console script, or else this checkout's `groupforge.cli`
    module with `src` on PYTHONPATH."""
    path = shutil.which("forge")
    if path:
        return [path], None
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([extra] if extra else []))
    return [sys.executable, "-m", "groupforge.cli"], env


def test_forge_console_script_points_at_cli_main():
    # the fallback above runs groupforge.cli as a module; this keeps the
    # installed entry point from drifting away from the same function
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                        re.M | re.S)
    assert section, "pyproject.toml has no [project.scripts] table"
    assert re.search(r'^forge\s*=\s*"groupforge\.cli:main"\s*$',
                     section.group(1), re.M)


def forge(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def field(out, key):
    """The value of the first `key: value` report line."""
    for ln in out.splitlines():
        if ln.startswith(key + ":"):
            return ln.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in:\n{out}")


# -- group subcommands -------------------------------------------------------


def test_group_check(capsys):
    code, out = forge(capsys, "group", "check", "z6")
    assert code == EXIT_OK
    assert field(out, "order") == "6"
    assert field(out, "center-order") == "6"
    assert field(out, "valid") == "true"


def test_group_check_table_file(capsys, files):
    code, out = forge(capsys, "group", "check", files["k4"])
    assert code == EXIT_OK
    assert field(out, "order") == "4"


def test_group_check_bad_table_file(capsys, files):
    code, out = forge(capsys, "group", "check", files["bad_grp"])
    assert code == EXIT_INPUT
    assert out.startswith("error:")


def test_group_check_out_of_range_entry_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "big.grp"
    path.write_text("group big\norder 2\ntable\n0 99999999999\n1 0\n")
    code, out = forge(capsys, "group", "check", str(path))
    assert code == EXIT_INPUT
    assert out == "error: table entries out of range\n"


def test_group_spec_naming_a_directory_is_an_input_error(capsys, tmp_path):
    (tmp_path / "sub").mkdir()
    scheme = tmp_path / "d.scheme"
    scheme.write_text("group g sub\nbase b g\n")
    hom = tmp_path / "d.hom"
    hom.write_text("hom h\nsrc sub\ndst z2\nmap 0\n")
    sub = tmp_path / "sub"
    for argv, msg in (
            (["group", "check", f"{sub}/"],
             f"cannot read group file {sub}/: Is a directory"),
            (["word", "reduce", str(scheme), "f0:1"],
             f"line 1: cannot read group file {sub}: Is a directory"),
            (["group", "localization", "--eta", str(hom)],
             f"line 2: cannot read group file {sub}: Is a directory")):
        assert forge(capsys, *argv) == (EXIT_INPUT, f"error: {msg}\n")


@pytest.mark.parametrize("argv,msg", [
    (("group", "aut", "z1000000"),
     "group z1000000 of order 1000000 exceeds expansion bound 5040"),
    (("group", "check", "z1000xz1000"),
     "group z1000xz1000 of order 1000000 exceeds expansion bound 5040"),
    (("group", "check", "d1000000"),
     "permutation group exceeds expansion bound 5040"),
    (("group", "check", "d10000"),
     "permutation group exceeds expansion bound 5040"),
], ids=["cyclic", "product", "dihedral", "d10000"])
def test_oversize_named_groups_are_input_errors(capsys, argv, msg):
    """Refused on their order, before numpy or the permutation expansion
    allocates anything of that size."""
    tracemalloc.start()
    try:
        code = run(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    assert capsys.readouterr().out == f"error: {msg}\n"
    assert peak < 32 * 2**20


def test_group_aut(capsys):
    code, out = forge(capsys, "group", "aut", "s3")
    assert code == EXIT_OK
    assert field(out, "aut-order") == "6"


def test_group_suitable_rejects_q8(capsys):
    code, out = forge(capsys, "group", "suitable", "q8")
    assert code == EXIT_FALSE
    assert field(out, "suitable") == "false"
    assert "witness: central element" in out


def test_group_complete(capsys):
    code, out = forge(capsys, "group", "complete", "s3")
    assert code == EXIT_OK
    assert field(out, "complete") == "true"
    code, out = forge(capsys, "group", "complete", "z4")
    assert code == EXIT_FALSE
    assert field(out, "complete") == "false"


def test_localization_identity_passes(capsys, files):
    code, out = forge(capsys, "group", "localization", "--eta",
                      files["eta22"])
    assert code == EXIT_OK
    assert field(out, "localization") == "true"


def test_localization_doubling_fails_with_witness(capsys, files):
    code, out = forge(capsys, "group", "localization", "--eta",
                      files["eta24"])
    assert code == EXIT_FALSE
    assert field(out, "localization") == "false"
    assert field(out, "witness") == "map with images (0, 0) has 2 extensions"


@pytest.mark.parametrize("name,msg", [
    ("badmap", "map image out of range"),
    ("baddir", "line 2: unknown directive"),
])
def test_bad_hom_files(capsys, files, name, msg):
    code, out = forge(capsys, "group", "localization", "--eta", files[name])
    assert code == EXIT_INPUT
    assert msg in out


@pytest.mark.parametrize("name,text,out", [
    ("group.grp", "group p\nperms 3\n# a comment\n1 2 0\n0 0 1\n",
     "error: line 5: not a permutation of 0..2: (0, 0, 1)\n"),
    ("src.hom", "hom eta\nsrc foo\ndst z4\nmap 0 2\n",
     "error: line 2: unknown group 'foo' (not a builtin name or file)\n"),
    # a group file named from a hom file: the hom line, then the group line
    ("dst.hom", "hom eta\nsrc z2\n\ndst bad.grp\nmap 0 2\n",
     "error: line 4: line 3: not a permutation of 0..1: (1, 1)\n"),
    ("grp.scheme", "group g bad.grp\nbase b g\n",
     "error: line 1: line 3: not a permutation of 0..1: (1, 1)\n"),
], ids=["group", "hom-src", "hom-dst-file", "scheme-group-file"])
def test_group_and_hom_file_errors_name_their_line(capsys, tmp_path, name,
                                                   text, out):
    (tmp_path / "bad.grp").write_text("group q\nperms 2\n1 1\n")
    path = tmp_path / name
    path.write_text(text)
    argv = (["group", "check", str(path)] if name.endswith(".grp")
            else ["group", "localization", "--eta", str(path)]
            if name.endswith(".hom") else ["word", "reduce", str(path), "1"])
    assert forge(capsys, *argv) == (EXIT_INPUT, out)


def test_missing_hom_file(capsys):
    code, out = forge(capsys, "group", "localization", "--eta",
                      "/nonexistent/eta.hom")
    assert code == EXIT_INPUT
    assert out.startswith("error:")


def test_group_socle(capsys):
    code, out = forge(capsys, "group", "socle", "z2", "s3")
    assert code == EXIT_OK
    assert field(out, "socle-order") == "6"
    assert field(out, "socle-is-group") == "true"


# -- word and amalgam subcommands --------------------------------------------


def test_word_reduce_to_identity(capsys, files):
    code, out = forge(capsys, "word", "reduce", files["fp"],
                      "f0:1 f0:4 f1:3 f1:4")
    assert code == EXIT_OK
    assert field(out, "reduced") == "1"
    assert field(out, "syllables") == "0"
    assert field(out, "identity") == "true"


def test_word_invert(capsys, files):
    code, out = forge(capsys, "word", "invert", files["fp"], "f0:2 f1:3")
    assert code == EXIT_OK
    assert field(out, "inverse") == "f1:4 f0:3"


def test_scheme_error_reports_line(capsys, files):
    code, out = forge(capsys, "word", "reduce", files["bad_scheme"], "f0:1")
    assert code == EXIT_INPUT
    assert "line 2: unknown group 'nosuch'" in out


def test_amalgam_nf(capsys, files):
    code, out = forge(capsys, "amalgam", "nf", files["fp"],
                      "f1:1 f0:2 f1:6")
    assert code == EXIT_OK
    assert field(out, "canonical") == "f1:1 f0:2 f1:6"
    assert field(out, "weakly-cyclically-reduced") == "false"


def test_torsion_conj_success(capsys, files):
    code, out = forge(capsys, "amalgam", "torsion-conj", files["fp"],
                      "f1:5 f0:3 f1:2")
    assert code == EXIT_OK
    assert field(out, "order") == "5"
    assert field(out, "factor") == "0"
    assert field(out, "element") == "3"
    assert field(out, "conjugator") == "f1:2"


def test_torsion_conj_identity(capsys, files):
    code, out = forge(capsys, "amalgam", "torsion-conj", files["fp"], "1")
    assert code == EXIT_OK
    assert field(out, "order") == "1"
    assert field(out, "factor") == "none (identity)"


def test_torsion_conj_infinite_order_is_verdict_false(capsys, files):
    code, out = forge(capsys, "amalgam", "torsion-conj", files["fp"],
                      "f0:1 f1:1")
    assert code == EXIT_FALSE
    assert field(out, "conjugate-into-factor") == "false"
    assert "witness:" in out and "infinite order" in out


def test_centralizer_check(capsys, files):
    code, out = forge(capsys, "amalgam", "centralizer-check", files["fp"],
                      "f0:1", "--cand", "f0:2", "--cand", "f1:1")
    assert code == EXIT_OK
    assert field(out, "x-class") == "torsion"
    assert "cand 0: commutes=true consistent=true" in out
    assert "cand 1: commutes=false consistent=true" in out
    assert field(out, "ok") == "true"


# -- hnn subcommands ---------------------------------------------------------


def test_stable_letter_pinch_in_fresh_process(forge_bin, files):
    # a fresh interpreter always numbers the scheme's one letter t1
    cmd, env = forge_bin
    r = subprocess.run(
        [*cmd, "hnn", "reduce", files["hnn5"], "t1^-1 f0:1 t1"],
        capture_output=True, text=True, env=env)
    assert r.returncode == EXIT_OK
    assert "reduced: f0:2" in r.stdout
    assert "letters: 0" in r.stdout


def test_hnn_reduce_rejects_amalgam_words_with_letters(capsys, files):
    code, out = forge(capsys, "hnn", "reduce", files["fp"], "f0:1")
    assert code == EXIT_INPUT
    assert "not an extension" in out


def test_make_conjugate(capsys, files):
    code, out = forge(capsys, "hnn", "make-conjugate", files["fp"],
                      "f0:1", "f0:2")
    assert code == EXIT_OK
    assert field(out, "node") == "top+conj"
    assert field(out, "letter").startswith("t")
    assert field(out, "verified") == "true"


def test_make_conjugate_order_mismatch(capsys, files):
    code, out = forge(capsys, "hnn", "make-conjugate", files["fp"],
                      "f0:1", "f1:1")
    assert code == EXIT_INPUT
    assert "different orders" in out


def test_realize_iso_identity_pairing(capsys, files):
    code, out = forge(capsys, "hnn", "realize-iso", files["hat"],
                      "--a", "0,1,2,3,4,5", "--b", "0,1,2,3,4,5",
                      "--a-hat", "0,1,2,3,4,5", "--b-hat", "0,1,2,3,4,5")
    assert code == EXIT_OK
    assert field(out, "hat-conjugator") == "0"
    assert field(out, "verified") == "true"


def test_readme_realize_iso_example_prints_its_pinned_output(forge_bin,
                                                            tmp_path):
    """README's example over its two-line hat.scheme, in a fresh process so
    the stable letters are t1 and t2."""
    (tmp_path / "hat.scheme").write_text("group g s3\nhat h g\n")
    prefix, env = forge_bin
    full = "0,1,2,3,4,5"
    got = subprocess.run(
        [*prefix, "hnn", "realize-iso", "hat.scheme", "--a", full, "--b", full,
         "--a-hat", full, "--b-hat", full],
        capture_output=True, env=env, cwd=tmp_path)
    assert (got.returncode, got.stdout.decode(), got.stderr) == (EXIT_OK, """\
node: h+iso2
letters: t1,t2
conjugator: f0:6 t2
hat-conjugator: 0
verified: true
""", b"")


def test_realize_iso_rejects_unknown_element_index(capsys, files):
    code, out = forge(capsys, "hnn", "realize-iso", files["hat"],
                      "--a", "0,1,99", "--b", "0,2,1",
                      "--a-hat", "0,1,2,3,4,5", "--b-hat", "0,1,2,3,4,5")
    assert code == EXIT_INPUT
    assert "element index 99 unknown" in out


# -- sc subcommands ----------------------------------------------------------


def test_sc_tau_default_node(capsys):
    code, out = forge(capsys, "sc", "tau", "--n", "1", "--print-word")
    assert code == EXIT_OK
    assert field(out, "syllables") == "4"
    assert field(out, "word") == "f0:1 f1:1 f0:1 f1:2"


def test_sc_tau_length_law(capsys):
    code, out = forge(capsys, "sc", "tau", "--n", "3")
    assert code == EXIT_OK
    assert field(out, "syllables") == str(2 * 3 * 4)


def test_sc_certify_below_threshold(capsys, files):
    code, out = forge(capsys, "sc", "certify", files["z35"], "--n", "18")
    assert code == EXIT_FALSE
    assert field(out, "max-piece") == "69"
    assert field(out, "ratio") == "23/228"
    assert field(out, "certified") == "false"
    assert "witness: piece of 69 syllables" in out


def test_sc_certify_at_threshold(capsys, files):
    code, out = forge(capsys, "sc", "certify", files["z35"], "--n", "19")
    assert code == EXIT_OK
    assert field(out, "lengths") == "760,760"
    assert field(out, "ratio") == "73/760"
    assert field(out, "certified") == "true"


def test_sc_decide_member_nonmember_undecided(capsys, files):
    # get the relator word from the builder itself, then feed slices back in
    code, out = forge(capsys, "sc", "tau", files["z35"], "--n", "19",
                      "--print-word")
    assert code == EXIT_OK
    tau = field(out, "word")

    code, out = forge(capsys, "sc", "decide", files["z35"], tau,
                      "--n", "19")
    assert code == EXIT_OK
    assert field(out, "verdict") == "member"

    conj = "f0:2 " + tau + " f0:1"
    code, out = forge(capsys, "sc", "decide", files["z35"], conj,
                      "--n", "19")
    assert code == EXIT_OK
    assert field(out, "verdict") == "member"

    code, out = forge(capsys, "sc", "decide", files["z35"], "f0:1",
                      "--n", "19")
    assert code == EXIT_FALSE
    assert field(out, "verdict") == "nonmember"
    assert "witness:" in out

    half = " ".join(tau.split()[:380])
    code, out = forge(capsys, "sc", "decide", files["z35"], half,
                      "--n", "19")
    assert code == EXIT_UNDECIDED
    assert field(out, "verdict") == "undecided"
    assert field(out, "max-fraction") == "1/2"


def test_sc_probe_quiet(capsys, files):
    code, out = forge(capsys, "sc", "probe", files["z35"], "--n", "19",
                      "--samples", "20", "--seed", "3")
    assert code == EXIT_OK
    assert field(out, "samples") == "20"
    assert field(out, "counterexamples") == "0"
    assert field(out, "ok") == "true"


def test_sc_probe_certifies_at_the_bound_it_is_given(capsys, files):
    """n = 3 has ratio 9/24: above the default 1/10, within 1/2.  n = 80 has
    ratio 317/12960: within 1/10, above 1/100."""
    short = ("sc", "probe", files["fp"], "--n", "3", "--samples", "20")
    code, out = forge(capsys, *short)
    assert code == EXIT_INPUT
    assert out == ("error: relator system is not certified at 1/10: max "
                   "piece 9 of relator length 24\n")
    code, out = forge(capsys, *short, "--bound", "1/2")
    assert code == EXIT_OK
    assert field(out, "samples") == "20"
    assert field(out, "ok") == "true"
    code, out = forge(capsys, "sc", "probe", files["fp"], "--n", "80",
                      "--samples", "0", "--bound", "1/100")
    assert code == EXIT_INPUT
    assert out == ("error: relator system is not certified at 1/100: max "
                   "piece 317 of relator length 12960\n")


def test_sc_obstruct_holds(capsys, files):
    code, out = forge(capsys, "sc", "obstruct", files["twist"],
                      "--x0", "f0:4", "--x1", "f1:4", "--y0", "f0:2",
                      "--n", "20")
    assert code == EXIT_OK
    assert field(out, "ratio") == "11/120"
    assert "shared 1: nonmember" in out
    assert field(out, "obstructed") == "true"


def test_sc_obstruct_config_failure(capsys, files):
    code, out = forge(capsys, "sc", "obstruct", files["twist"],
                      "--x0", "f0:4", "--x1", "f1:4", "--y0", "f0:1",
                      "--n", "20")
    assert code == EXIT_FALSE
    assert field(out, "obstructed") == "false"
    assert "witness: y0 lies in the shared subgroup" in out


README_SC = [
    (["tau", "--n", "80"], EXIT_OK, """\
node: g1*g2
n: 80
syllables: 12960
"""),
    (["certify", "prod.scheme", "--n", "80"], EXIT_OK, """\
node: top
relators: 1
lengths: 12960,12960
max-piece: 317
ratio: 317/12960
bound: 1/10
certified: true
"""),
    (["decide", "prod.scheme", "f0:1 f1:1", "--n", "80"], EXIT_FALSE, """\
node: top
verdict: nonmember
steps: 0
max-fraction: 1/6480
witness: shorter than half the shortest relator; no relator can cover more \
than half of itself inside it
"""),
    (["probe", "prod.scheme", "--n", "80", "--samples", "200"], EXIT_OK, """\
node: top
samples: 200
tower-conjugacies: 0
undecided: 0
counterexamples: 0
ok: true
"""),
    (["obstruct", "prod.scheme", "--x0", "f0:4", "--x1", "f1:4", "--y0", "f0:2",
      "--n", "20"], EXIT_FALSE, """\
node: top
config: false (y0 centralizes x0)
metric: false
ratio: None
obstructed: false
witness: y0 centralizes x0
"""),
]


@pytest.mark.parametrize("args,code,expected", README_SC,
                         ids=[a[0] for a, _, _ in README_SC])
def test_readme_sc_examples_print_their_pinned_output(forge_bin, args, code,
                                                      expected):
    """The README's `forge sc` block, each in a fresh process, over the
    Z5 * Z7 scheme kept as bench/data/prod.scheme."""
    prefix, env = forge_bin
    got = subprocess.run([*prefix, "sc", *args], capture_output=True, env=env,
                         cwd=ROOT / "bench" / "data")
    assert (got.returncode, got.stdout.decode(), got.stderr) == \
        (code, expected, b"")


# -- universe subcommands ----------------------------------------------------

README_UNIVERSE = [
    ("assign prod.scheme --blocks 0,1", """\
node: top
blocks: 0,1
tracked: 11
addr 0:0: 1
addr 0:1: f0:1
addr 0:2: f0:2
addr 0:3: f0:3
addr 0:4: f0:4
addr 1:0: f1:1
addr 1:1: f1:2
addr 1:2: f1:3
addr 1:3: f1:4
addr 1:4: f1:5
addr 1:5: f1:6
"""),
    ("check prod.scheme --blocks 0,1", """\
node: top
tracked: 11
ok: true
"""),
    ("code --h s3 --master 0,1,2,3", """\
h: s3
members: 8
member {0}: code 0
member {0,1}: code 1
member {0,2}: code 1
member {0,3}: code 1
member {0,1,2}: code 2
member {0,1,3}: code 2
member {0,2,3}: code 2
member {0,1,2,3}: code 3
classes: 4
code 0 dom {0}
code 1 dom {0,1}
code 2 dom {0,1,2}
code 3 dom {0,1,2,3}
"""),
    ("probe --h s3 --master 0,1,2,3 --samples 100", """\
h: s3
members: 8
clause 1: checked 27 failures 0
clause 2: checked 125 failures 0
clause 3: checked 19 failures 0
clause 4: checked 20 failures 0
clause 5: checked 6 failures 0
clause 6: checked 61 failures 0
clause 7: checked 8 failures 0
clause 8: checked 100 failures 0
ok: true
"""),
    ("density-dom --h z3 --blocks 0,1 --alpha 3", """\
h: z3
before: {0,1}
after: {0,1,3}
extended: true
ok: true
"""),
    ("density-simple --h z3 --blocks 0,1 --x f0:1 --y f0:2", """\
h: z3
case: finite-both
trace-terms: 4
extended: true
term 0: exponent 1 conjugator t1
term 1: exponent 1 conjugator f0:65 t1
term 2: exponent -1 conjugator f0:66
term 3: exponent -1 conjugator f0:67
verified: true
"""),
]


@pytest.mark.parametrize("args,expected", README_UNIVERSE,
                         ids=[a.split()[0] for a, _ in README_UNIVERSE])
def test_readme_universe_examples_print_their_pinned_output(
        forge_bin, tmp_path, args, expected):
    """The README's `forge universe` block, each in a fresh process since
    letter numbering is process-global.  Printed words carry registry
    indices, so the full text pins the order of interning too."""
    (tmp_path / "prod.scheme").write_text(FP57)
    prefix, env = forge_bin
    got = subprocess.run([*prefix, "universe", *args.split()],
                         capture_output=True, env=env, cwd=tmp_path)
    assert (got.returncode, got.stdout.decode(), got.stderr) == \
        (EXIT_OK, expected, b"")



def test_universe_assign_layout(capsys, files):
    code, out = forge(capsys, "universe", "assign", files["fp"],
                      "--blocks", "0,1")
    assert code == EXIT_OK
    assert field(out, "tracked") == "11"
    assert "addr 0:0: 1" in out
    assert "addr 0:4: f0:4" in out
    assert "addr 1:0: f1:1" in out
    assert "addr 1:5: f1:6" in out


def test_universe_check_ok(capsys, files):
    code, out = forge(capsys, "universe", "check", files["b6"],
                      "--blocks", "0")
    assert code == EXIT_OK
    assert field(out, "ok") == "true"


def test_universe_check_unrealizable_block(capsys, files):
    code, out = forge(capsys, "universe", "check", files["b6"],
                      "--blocks", "0,3")
    assert code == EXIT_INPUT
    assert "no tracked element realizes block 3" in out


def test_universe_bad_block_list(capsys, files):
    code, out = forge(capsys, "universe", "check", files["b6"],
                      "--blocks", "zero")
    assert code == EXIT_INPUT
    assert "bad block list" in out


def test_universe_code_report(capsys):
    code, out = forge(capsys, "universe", "code", "--h", "z3",
                      "--master", "0,1,2")
    assert code == EXIT_OK
    assert out == (
        "h: z3\n"
        "members: 4\n"
        "member {0}: code 0\n"
        "member {0,1}: code 1\n"
        "member {0,2}: code 1\n"
        "member {0,1,2}: code 2\n"
        "classes: 3\n"
        "code 0 dom {0}\n"
        "code 1 dom {0,1}\n"
        "code 2 dom {0,1,2}\n")


def test_universe_probe_clause_counts(capsys):
    code, out = forge(capsys, "universe", "probe", "--h", "z3",
                      "--master", "0,1,2", "--samples", "10", "--seed", "4")
    assert code == EXIT_OK
    assert "clause 1: checked 9 failures 0" in out
    assert "clause 2: checked 25 failures 0" in out
    assert "clause 8: checked 10 failures 0" in out
    assert field(out, "ok") == "true"


def test_density_dom_extends(capsys):
    code, out = forge(capsys, "universe", "density-dom", "--h", "z3",
                      "--blocks", "0,1", "--alpha", "3")
    assert code == EXIT_OK
    assert field(out, "after") == "{0,1,3}"
    assert field(out, "extended") == "true"


def test_density_dom_noop_when_present(capsys):
    code, out = forge(capsys, "universe", "density-dom", "--h", "z3",
                      "--blocks", "0,1", "--alpha", "1")
    assert code == EXIT_OK
    assert field(out, "after") == "{0,1}"
    assert field(out, "extended") == "false"


@pytest.mark.parametrize("argv,msg", [
    (("--alpha", "5000"), "outside the configured blocks"),
    (("--alpha", "3", "--allowed", "0,1"), "outside the allowed set"),
])
def test_density_dom_errors(capsys, argv, msg):
    code, out = forge(capsys, "universe", "density-dom", "--h", "z3",
                      "--blocks", "0,1", *argv)
    assert code == EXIT_INPUT
    assert msg in out


def test_density_simple_finite_pair(capsys):
    code, out = forge(capsys, "universe", "density-simple", "--h", "z3",
                      "--blocks", "0,1", "--x", "f0:1", "--y", "f0:2")
    assert code == EXIT_OK
    assert field(out, "case") == "finite-both"
    assert field(out, "trace-terms") == "4"
    assert field(out, "extended") == "true"
    assert field(out, "verified") == "true"


def test_density_simple_tracked_extras(capsys):
    code, out = forge(capsys, "universe", "density-simple", "--h", "z3",
                      "--blocks", "0,1",
                      "--track", "f0:1 f1:1", "--track", "f0:2 f1:2",
                      "--x", "f0:1 f1:1", "--y", "f0:2 f1:2")
    assert code == EXIT_OK
    assert field(out, "case") == "both-infinite"
    assert field(out, "trace-terms") == "1"


# -- session plumbing --------------------------------------------------------


def test_budget_flag_both_positions(capsys):
    for argv in (["--budget", "2", "group", "aut", "s4"],
                 ["group", "aut", "s4", "--budget", "2"]):
        code, out = forge(capsys, *argv)
        assert code == EXIT_UNDECIDED
        assert "error: homomorphism search needs" in out


def test_budget_flag_reaches_a_scheme_hat_line(capsys, tmp_path):
    path = tmp_path / "hat.scheme"
    path.write_text("group g a5\nhat h g\n")
    for argv in (["word", "reduce", str(path), "f0:1"],
                 ["sc", "tau", str(path), "--n", "1"]):
        code, out = forge(capsys, "--budget", "2", *argv)
        assert code == EXIT_UNDECIDED
        assert out == ("error: line 2: homomorphism search needs ~576 "
                       "operations, budget 2\n")


def test_budget_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("FORGE_BUDGET", "2")
    code, out = forge(capsys, "group", "aut", "s4")
    assert code == EXIT_UNDECIDED
    assert "budget 2" in out


@pytest.mark.parametrize("bound", ["1/0", "0", "-1/10", "tenth"])
def test_bad_bound_is_an_input_error(capsys, files, bound):
    code, out = forge(capsys, "sc", "certify", files["fp"], "--n", "5",
                      f"--bound={bound}")
    assert code == EXIT_INPUT
    assert "bad bound" in out


def test_negative_budget_is_an_input_error(capsys):
    code, out = forge(capsys, "--budget", "-1", "group", "aut", "s4")
    assert code == EXIT_INPUT
    assert "budget must be at least 0, got -1" in out


def test_nonpositive_window_is_an_input_error(capsys, files):
    code, out = forge(capsys, "hnn", "make-conjugate", files["fp"],
                      "f0:1 f1:1", "f0:2 f1:2", "--g0-window=-2")
    assert code == EXIT_INPUT
    assert "g0-window must be at least 1, got -2" in out


def test_empty_budget_in_environment_means_the_default(capsys, monkeypatch):
    monkeypatch.setenv("FORGE_BUDGET", "")
    code, out = forge(capsys, "group", "aut", "s3")
    assert code == EXIT_OK
    assert field(out, "aut-order") == "6"


@pytest.mark.parametrize("env", ["x", "-3"])
def test_bad_budget_from_environment_is_an_input_error(capsys, monkeypatch,
                                                       env):
    monkeypatch.setenv("FORGE_BUDGET", env)
    code, out = forge(capsys, "group", "aut", "s3")
    assert code == EXIT_INPUT
    assert out.startswith("error: ")


def test_non_integer_budget_in_environment_names_the_variable(capsys,
                                                              monkeypatch):
    monkeypatch.setenv("FORGE_BUDGET", "x")
    code, out = forge(capsys, "group", "aut", "s3")
    assert code == EXIT_INPUT
    assert out == "error: FORGE_BUDGET must be an integer, got 'x'\n"


def test_budget_caps_the_dehn_steps_of_sc_decide(capsys, files):
    code, out = forge(capsys, "sc", "tau", files["fp"], "--n", "20",
                      "--print-word")
    tau = field(out, "word")
    code, out = forge(capsys, "--budget", "1", "sc", "decide", files["fp"],
                      tau, "--n", "20")
    assert code == EXIT_OK
    assert (field(out, "verdict"), field(out, "steps")) == ("member", "1")
    # a budget of 0 is a budget, not "no budget"
    code, out = forge(capsys, "--budget", "0", "sc", "decide", files["fp"],
                      tau, "--n", "20")
    assert code == EXIT_UNDECIDED
    assert (field(out, "verdict"), field(out, "steps")) == ("undecided", "0")
    assert field(out, "witness") == "step limit reached"


def test_negative_samples_is_an_input_error(capsys):
    code, out = forge(capsys, "universe", "probe", "--h", "z3", "--master",
                      "0,1", "--samples", "-5")
    assert code == EXIT_INPUT
    assert "samples must be at least 0, got -5" in out


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: forge")
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    [],
    ["group", "check", "z6", "--frobnicate"],
    ["group", "frobnicate", "z6"],
    # "-1/10" reads as a flag, so --bound is left without its value
    ["sc", "certify", "prod.scheme", "--bound", "-1/10"],
    ["group", "aut"],
    ["frobnicate"],
])
def test_usage_errors_exit_three(capsys, argv):
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out.startswith("error: ")
    assert len(captured.out.splitlines()) == 1
    assert captured.err == ""


def test_node_constructor_errors_carry_the_scheme_line(capsys, tmp_path):
    path = tmp_path / "bad.scheme"
    path.write_text(FP57.replace("shared 0=0", "shared 0=0 9=9"))
    code, out = forge(capsys, "word", "reduce", str(path), "f0:1")
    assert code == EXIT_INPUT
    assert out == ("error: line 5: top shared subgroup: element index 9 "
                   "unknown at b1\n")


def test_internal_errors_exit_four(capsys, monkeypatch):
    """A bug in a subcommand is one stdout line and its own exit code, not a
    traceback ending in the verdict-no code 1."""
    def broken(args, s):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_group_check", broken)
    assert run(["group", "check", "z6"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == "error: internal: RuntimeError: boom\n"
    assert captured.err == ""


# -- fuzzing the argument vector ----------------------------------------------

PROD_SCHEME = str(ROOT / "bench" / "data" / "prod.scheme")
FUZZ_GROUPS = ["z2", "z3", "z4", "z5", "z6", "s3", "a4", "d4", "nosuch", "z0",
               "d2", "s3xq"]
FUZZ_WORDS = ["f0:1", "f0:2 f1:3", "f1:6 f0:4 f1:1", "f9:1", "f0:99", "t1",
              "x", ""]
FUZZ_INTS = ["0", "1", "3", "-1", "-7", "2.5", "x", ""]
FUZZ_BOUNDS = ["1/10", "1/6", "1/0", "-1/10", "0", "abc", "0.1"]
FUZZ_BLOCKS = ["0", "0,1", "1,3,5", "0,1,2,3", "", "x", "-1,2"]
FUZZ_SCHEMES = [PROD_SCHEME] * 3 + ["/nonexistent/prod.scheme"]


def _pick(values):
    return st.sampled_from(values)


def _argv(*parts):
    """Strategy for an argument tuple: each part is a fixed string or a
    strategy, and a drawn tuple is spliced in (so `()` drops a value)."""
    drawn = st.tuples(*(st.just(p) if isinstance(p, str) else p
                        for p in parts))
    return drawn.map(lambda ds: tuple(
        t for d in ds for t in ((d,) if isinstance(d, str) else d)))


def _flags(*choices, max_size):
    return st.lists(st.one_of(*choices), max_size=max_size).map(
        lambda fs: tuple(t for f in fs for t in f))


_scheme, _word, _int, _group, _blocks = (
    _pick(FUZZ_SCHEMES), _pick(FUZZ_WORDS), _pick(FUZZ_INTS),
    _pick(FUZZ_GROUPS), _pick(FUZZ_BLOCKS))
_sc_flags = _flags(_argv("--n", _int), _argv("--bound", _pick(FUZZ_BOUNDS)),
                   _argv("--x0", _word), _argv("--relator", _word),
                   _argv("--z", _word), max_size=3)

FUZZ_COMMANDS = st.one_of(
    _argv("group", _pick(["check", "aut", "suitable", "complete"]), _group),
    _argv("group", "socle", _group, _group),
    _argv("group", "localization", "--eta", _scheme),
    _argv(_pick(["word", "amalgam", "hnn"]),
          _pick(["reduce", "invert", "nf", "torsion-conj"]), _scheme, _word),
    _argv("amalgam", "centralizer-check", _scheme, _word, "--cand", _word),
    _argv("hnn", "make-conjugate", _scheme, _word, _word),
    _argv("hnn", "realize-iso", _scheme, "--a", _blocks, "--b", _blocks,
          "--a-hat", _blocks, "--b-hat", _blocks),
    _argv("sc", _pick(["certify", "probe"]), _scheme, _sc_flags),
    _argv("sc", "decide", _scheme, _word, _sc_flags),
    _argv("sc", "tau", "--n", _int),
    _argv("sc", "obstruct", _scheme, "--y0", _word, "--n", _int),
    _argv("universe", _pick(["assign", "check"]), _scheme, "--blocks",
          _blocks),
    _argv("universe", _pick(["code", "probe"]), "--h", _group, "--master",
          _blocks),
    _argv("universe", "density-dom", "--h", _group, "--blocks", _blocks,
          "--alpha", _int),
    _argv("universe", "density-simple", "--h", _group, "--blocks", _blocks,
          "--x", _word, "--y", _word),
    _argv(_pick(["frobnicate", "group", "sc", "universe", "--help"])),
)
FUZZ_GLOBALS = _flags(_argv(
    _pick(["--seed", "--budget", "--samples", "--g0-window"]),
    _pick(["0", "1", "5", "40", "-1", "1/2", "x", ()])), max_size=2)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(FUZZ_GLOBALS, FUZZ_COMMANDS, _pick([None] * 4 + list(range(5))),
       st.booleans())
def test_fuzzed_command_lines_never_reach_stderr(capsys, flags, command, keep,
                                                 flags_last):
    """Any argument vector drawn from the commands, their flags and bad
    values ends in one of the four exit codes with nothing on stderr.
    `keep` may truncate the command, so required arguments go missing."""
    command = list(command[:None if keep is None else keep + 1])
    argv = command + list(flags) if flags_last else list(flags) + command
    capsys.readouterr()
    code = run(argv)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_FALSE, EXIT_UNDECIDED, EXIT_INPUT), argv
    assert captured.err == "", argv


# -- fuzzing the three file formats ------------------------------------------

# README's files and the fixtures above, and a few that reach the cyclic
# pairings and group files named from other files
FILE_SEEDS = {
    "scheme": [FP57, FP35, TWIST, HNN5, HAT,
               "group g z6\nbase c g\nhnn top c cyclic 2:4\ntarget top\n",
               "group g z6\nbase l g\nbase r g\n"
               "amalgam top l r cyclic 2:2 3\n",
               "group k k4.grp\nbase l k\nbase r k\n"
               "amalgam top l r shared 0=0 1=1\n"],
    "group": [K4_TABLE, "group p\nperms 3\n1 2 0\n1 0 2\n",
              "group c\norder 3\nperms 3\n1 2 0\n"],
    "hom": ["hom eta\nsrc z2\ndst z4\nmap 0 2\n", "src z2\ndst z2\nmap 0 1\n",
            "hom k\nsrc k4.grp\ndst z2\nmap 0 1\nmap 1 0\n"],
}
FILE_TOKENS = ["0", "1", "2", "3", "5", "7", "9", "64", "-1", "x", "", "=",
               ":", "0=0", "1=2", "2=x", "1:2", "3:x", "#", "z3", "s3", "z6",
               "k4.grp", "nosuch.grp", "fz.scheme", "group", "base", "hat",
               "amalgam", "hnn", "shared", "assoc", "cyclic", "target",
               "order", "table", "perms", "src", "dst", "map", "hom"]
FILE_COMMANDS = {
    "scheme": [["word", "reduce", "{}", "f0:1 f0:2"],
               ["amalgam", "nf", "{}", "f1:1 f0:2 f1:1"],
               ["hnn", "reduce", "{}", "t1^-1 f0:1 t1"],
               ["universe", "check", "{}", "--blocks", "0,1"],
               ["sc", "certify", "{}", "--n", "2"]],
    "group": [["group", "check", "{}"]],
    "hom": [["group", "localization", "--eta", "{}"]],
}
ALL_SEED_LINES = sorted({ln for seeds in FILE_SEEDS.values()
                         for text in seeds for ln in text.splitlines()})


@st.composite
def mutated_file(draw):
    """(format, text): a seed file with a few lines dropped, repeated,
    swapped, cut short or re-tokenised, or lines of other files spliced
    in."""
    kind = draw(st.sampled_from(sorted(FILE_SEEDS)))
    lines = draw(st.sampled_from(FILE_SEEDS[kind])).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "repeat", "swap", "cut", "token",
                                   "insert", "splice"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines:
            lines = [draw(st.sampled_from(ALL_SEED_LINES))]
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op in ("cut", "token", "insert"):
            toks = lines[i].split()
            k = draw(st.integers(0, len(toks)))
            if op == "cut":
                toks = toks[:k]
            else:
                new = draw(st.sampled_from(FILE_TOKENS))
                toks[k:k + (op == "token")] = [new]
            lines[i] = " ".join(toks)
        else:
            lines.insert(i, draw(st.sampled_from(ALL_SEED_LINES)))
    return kind, "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "k4.grp").write_text(K4_TABLE)
    return d


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(mutated_file(), st.integers(0, 4))
def test_fuzzed_files_never_reach_stderr(capsys, fuzz_dir, case, pick):
    """A mutated scheme, group or hom file ends in one of the four exit
    codes with nothing on stderr; an input error is one `error:` line."""
    kind, text = case
    path = fuzz_dir / f"fz.{kind}"
    path.write_text(text)
    commands = FILE_COMMANDS[kind]
    argv = [a.format(path) for a in commands[pick % len(commands)]]
    capsys.readouterr()
    code = run(argv)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_FALSE, EXIT_UNDECIDED, EXIT_INPUT), \
        (text, argv, captured.out)
    assert captured.err == "", (text, argv)
    if code == EXIT_INPUT:
        assert captured.out.startswith("error: "), (text, argv)
        assert len(captured.out.splitlines()) == 1, (text, argv)


def test_repeated_runs_are_byte_identical(forge_bin):
    prefix, env = forge_bin
    cmd = [*prefix, "universe", "probe", "--h", "z3", "--master", "0,1,2",
           "--samples", "25", "--seed", "9"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == EXIT_OK
    assert first.stdout == second.stdout


def test_group_suitable_a6_under_the_default_budget(forge_bin):
    prefix, env = forge_bin
    r = subprocess.run([*prefix, "group", "suitable", "a6"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == EXIT_OK
    assert "aut-order: 1440" in r.stdout.splitlines()
    assert "suitable: true" in r.stdout.splitlines()
