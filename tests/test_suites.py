"""The contract shared by the five verify suites: one check of l, and
mismatch reports that stay byte-identical."""

import hashlib
import importlib
import json
import pkgutil
import re

import pytest

import affine_fock
from affine_fock import cli, core_quotient
from affine_fock import equivariant as eq
from affine_fock import fock
from affine_fock import frenkel_kac as fk
from affine_fock.partitions import LaurentPoly, Vec, residue_boundary
from conftest import stub_everywhere

SUITES_WITH_L = [
    fk.verify_intertwining,
    fk.verify_relations,
    eq.verify_geometric_match,
    eq.verify_fixed_points,
]


@pytest.mark.parametrize("l", [-1, 0, 1])
@pytest.mark.parametrize("suite", SUITES_WITH_L, ids=lambda f: f.__name__)
def test_bad_l_is_rejected_not_passed(suite, l):
    with pytest.raises(ValueError, match=re.escape(f"need at least two residue classes: {l}")):
        suite(l, 3)


@pytest.mark.parametrize("l", [2.5, 2.9, 3.0])
@pytest.mark.parametrize("suite", SUITES_WITH_L, ids=lambda f: f.__name__)
def test_non_integer_l_is_rejected_not_truncated(suite, l):
    """A float l used to be cut to int(l), so l = 2.9 ran and reported
    "l": 2; every float is an error now, 3.0 included."""
    with pytest.raises(ValueError, match=re.escape(f"must be an int: {l!r}")):
        suite(l, 3)


def _eta_scan_right(monkeypatch):
    monkeypatch.setattr(fk, "ETA_SCAN_SIDE", "right")


def _fermion_sign_plus(monkeypatch):
    monkeypatch.setattr(fock, "FERMION_SIGN", 1)


def _cocycle_offsets_zero(monkeypatch):
    monkeypatch.setattr(fk, "EPSILON_NEG_OFFSETS", (0,))


def _shifted_chamber_char(monkeypatch):
    plain = eq.fixed_point_char

    def shifted(lam):
        out = plain(lam)
        return out + LaurentPoly({0: 1}) if sum(lam) == 3 else out

    monkeypatch.setattr(eq, "fixed_point_char", shifted)


def _negated(generator):
    """Break the explicit route by negating one generator's image."""

    def breaks(monkeypatch):
        plain = fk.explicit_action

        def negated(g, v, l):
            out = plain(g, v, l)
            return -out if g == generator else out

        monkeypatch.setattr(fk, "explicit_action", negated)

    return breaks


def _e_0_added_to_e_1(monkeypatch):
    """Break the explicit route by adding e_0's image to e_1's, which trips
    the Serre relations as well as the brackets."""
    plain = fk.explicit_action

    def added(g, v, l):
        out = plain(g, v, l)
        return out + plain("e_0", v, l) if g == "e_1" else out

    monkeypatch.setattr(fk, "explicit_action", added)


def _core_vector_shifted(monkeypatch):
    """Move one unit of the core vector from c_1 to c_0, which trips the
    geometric suite's parity congruence at residues 0 and 2 (l = 3) and
    leaves its coefficients alone."""
    plain = core_quotient.core_and_quotient

    def shifted(lam, l):
        (c0, c1, *rest), q = plain(lam, l)
        return (c0 + 1, c1 - 1, *rest), q

    monkeypatch.setattr(core_quotient, "core_and_quotient", shifted)


def _count_parity_flipped_at_1(monkeypatch):
    """Flip the count parity of residue_boundary at residue 1 only, in
    every module that binds it. geometric_e reads its prefactor off the
    residue-(i + 1) scan and the explicit e_i off the residue-i scan, so
    the flip lands on e_0 on one side and on e_1 on the other; a
    geometric_e that read the residue-i scan would cancel it out."""

    def flipped(lam, i, l):
        odd, boundary = residue_boundary(lam, i, l)
        return odd ^ (i % l == 1), boundary

    stub_everywhere(monkeypatch, residue_boundary, flipped)


# (suite, l, degree, the layer to break, sha256 of the mismatch report)
MISMATCHES = [
    (
        "frenkel-kac", 3, 4, _eta_scan_right,
        "e9f8c10aadf3be742b9d8e0c40de8352753e1daf51906273ab56a7a1035eace4",
    ),
    (
        "geometric", 3, 4, _eta_scan_right,
        "333163cababd7655211cf2311a80a479bfb44d54939b61f69bbd024d9b605adc",
    ),
    (
        "boson-fermion", 2, 4, _fermion_sign_plus,
        "bbbd5a099190f20ed50c2dae47cce99d3a43452a41f6d05bffc12f148fe130d4",
    ),
    (
        "fixed-points", 3, 4, _shifted_chamber_char,
        "a8568bae6efa60398a291741477e1032b0b8ec10f9f3ca5664abf34bf1707405",
    ),
    (
        "relations", 3, 4, _negated("e_1"),
        "a0959814d57402a88b044ca211984e49e9e566502900e52d20d9a7405122db0e",
    ),
    # at scale: many failures over many shapes, listed smallest shape first
    (
        "frenkel-kac", 4, 6, _eta_scan_right,
        "675d3c9b770f91032e65b167638f5fdb0e532032bccbcaaa04f5b58a5c2cfcf2",
    ),
    (
        "relations", 3, 7, _negated("h_0"),
        "ff04d60bc690ae5780bd817047f4c1e189981c5cdf2a29934048ca7aaebfbbe0",
    ),
    (
        "boson-fermion", 2, 6, _fermion_sign_plus,
        "3a515b7b57b91f85a066064a82cda907a412f75f7f3c99fbabd61da82c4afd04",
    ),
    # the cocycle dressing of e_i and f_i on the vertex route
    (
        "frenkel-kac", 3, 5, _cocycle_offsets_zero,
        "babbaab752cbf98bf8afff0e27fe08e50b71b5795b8891ecd94b6e22797d58d8",
    ),
    # the vertex route's p image, which the negated explicit one misses
    (
        "frenkel-kac", 3, 6, _negated("p_1(2)"),
        "1e9234cfc769ea72aa40c46396cd9b0b0f4d1f0d388fd961342f58233eeecee5",
    ),
]

# the second failure branch of two suites, by pin name: the Serre sums of
# relations (6 failures here) and the parity congruence of geometric (9);
# and the geometric suite's own check of the explicit prefactor (9)
BRANCH_MISMATCHES = {
    "relations-serre": (
        "relations", 3, 4, _e_0_added_to_e_1,
        "a42c0b13fb7b63ab7373dc67eab60a7a666d7773fa25045ae908de5f459add3f",
    ),
    "geometric-parity": (
        "geometric", 3, 4, _core_vector_shifted,
        "150bf99b644dd4a306c015d7991ded4332ef83f354422c6fb211c8154d40ea53",
    ),
    "geometric-prefactor": (
        "geometric", 3, 4, _count_parity_flipped_at_1,
        "d49dc30b1c2954cc10e9567f25a1f80f2c66dbba03356cbca460c3e004b5d482",
    ),
}


@pytest.mark.parametrize(
    "suite, l, degree, breaks, digest",
    MISMATCHES + list(BRANCH_MISMATCHES.values()),
    # a degree-4 pin is named by its suite alone, a pin at scale by its size
    ids=[m[0] if m[2] == 4 else f"{m[0]}-l{m[1]}-d{m[2]}" for m in MISMATCHES]
    + list(BRANCH_MISMATCHES),
)
def test_mismatch_report_bytes(capsys, monkeypatch, suite, l, degree, breaks, digest):
    breaks(monkeypatch)
    code = cli.main(["verify", "--suite", suite, "--l", str(l), "--degree", str(degree)])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 1 and report["status"] == "mismatch" and report["failures"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_is_the_one_suite_loop():
    """fock.report runs check on each label, labels outermost: failures
    come out label by label, and within one label in the order check
    yields them; the status is ok exactly when check yields nothing; the
    suite's fields keep their order between status and failures."""
    yields = {"c": [("v", [], [5])], "a": [("x", 1, 2), ("w", 3, 4)], "b": []}

    def check(label):
        yield from yields[label]

    def label_json(label):
        return {"name": label}

    out = fock.report(["c", "a", "b"], check, label_json, z=1, a=2)
    assert list(out) == ["status", "z", "a", "failures"]
    assert out["status"] == "mismatch"
    assert out["failures"] == [
        {"generator": "v", "lambda": {"name": "c"}, "lhs": [], "rhs": [5]},
        {"generator": "x", "lambda": {"name": "a"}, "lhs": 1, "rhs": 2},
        {"generator": "w", "lambda": {"name": "a"}, "lhs": 3, "rhs": 4},
    ]
    assert all(list(f) == ["generator", "lambda", "lhs", "rhs"] for f in out["failures"])
    assert fock.report(["b", "b", "b"], check, label_json, z=1, a=2) == {
        "status": "ok", "z": 1, "a": 2, "failures": []
    }


@pytest.mark.parametrize(
    "run, breaks",
    [
        (lambda: fock.verify_boson_fermion(4, 2), _fermion_sign_plus),
        (lambda: fk.verify_intertwining(3, 4), _eta_scan_right),
        (lambda: fk.verify_intertwining(3, 4), _cocycle_offsets_zero),
    ],
    ids=["boson-fermion", "frenkel-kac", "frenkel-kac-cocycle"],
)
def test_a_warm_memo_does_not_hide_a_seam(monkeypatch, run, breaks):
    """The kernel memos hold nothing a seam changes: in one process a
    suite is ok, trips once its seam is flipped, and is ok again once the
    seam is restored. The three seams are FERMION_SIGN, ETA_SCAN_SIDE and
    EPSILON_NEG_OFFSETS."""
    assert run()["status"] == "ok"
    breaks(monkeypatch)
    assert run()["status"] == "mismatch"
    monkeypatch.undo()
    assert run()["status"] == "ok"


def test_only_the_shape_kernels_keep_a_process_memo():
    """The memo policy in fock's docstring: a memo outlives a call only
    when its function is pure in its arguments and reads no seam. Exactly
    the three shape kernels do, each without a size bound."""
    memos = {}
    for info in pkgutil.iter_modules(affine_fock.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        module = importlib.import_module(f"affine_fock.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                memos[f"{info.name}.{name}"] = value
    memos.update((f"affine_fock.{name}", value) for name, value in vars(affine_fock).items()
                 if hasattr(value, "cache_info"))
    assert sorted(memos) == ["fock._field_on_shape", "fock._gamma_on_shape", "fock._hop_on_shape"]
    assert all(memo.cache_info().maxsize is None for memo in memos.values())


def _count_calls(monkeypatch, module, name) -> dict:
    """Wrap module.name so that each call adds one to the returned count."""
    plain, count = getattr(module, name), {"calls": 0}

    def counted(*args):
        count["calls"] += 1
        return plain(*args)

    monkeypatch.setattr(module, name, counted)
    return count


def _clear_kernel_memos() -> None:
    fock._field_on_shape.cache_clear()
    fock._gamma_on_shape.cache_clear()


def test_boson_fermion_computes_each_field_coefficient_once(monkeypatch):
    """At d = 9 the suite asks for 15,450 field modes, its perfbench witness
    count, on 3,478 distinct field-kernel arguments; each is computed once."""
    _clear_kernel_memos()
    modes = _count_calls(monkeypatch, fock, "fermion_field_coeff")
    assert fock.verify_boson_fermion(9, 2)["status"] == "ok"
    assert modes["calls"] == 15450
    assert fock._field_on_shape.cache_info().misses == 3478


def test_boson_fermion_reuses_the_strip_kernel():
    """The field kernel calls the strip kernel directly, so the strip memo
    is shared across fields: 9,318 hits and 1,452 misses at d = 9. A
    tuple-of-shapes layer between them used to ask it each key once (0
    hits); summing b up to |lam|, past the largest strip a shape can lose,
    made 14,198 hits and 2,134 misses, about a third of those hits on
    strips too large to exist."""
    _clear_kernel_memos()
    assert fock.verify_boson_fermion(9, 2)["status"] == "ok"
    info = fock._gamma_on_shape.cache_info()
    assert (info.hits, info.misses) == (9318, 1452)


def test_boson_fermion_builds_one_vec_per_route(monkeypatch):
    """Each check builds one Vec, on the kernel side, and each label its
    basis vector; the direct side is a dict of the label's pairs: 15,935
    at d = 9. A Vec per direct fermion made 31,385, and going through a
    one-term Vec per label and Vec.apply 46,835."""
    calls = _count_calls(monkeypatch, Vec, "__init__")
    assert fock.verify_boson_fermion(9, 2)["status"] == "ok"
    assert calls["calls"] <= 15935


def test_intertwining_builds_one_vec_per_lift(monkeypatch):
    """Every per-label lift is one Vec.apply over (label, coeff) pairs, and
    the transport memo holds pairs: 10,725 Vecs at l = 3, d = 10. Lifting
    through a one-label Vec per shape made 24,775, and dressing e and f
    and subtracting two strand bosons in their own Vecs 14,895."""
    calls = _count_calls(monkeypatch, Vec, "__init__")
    assert fk.verify_intertwining(3, 10)["status"] == "ok"
    assert calls["calls"] <= 10725


def test_relations_builds_a_vec_only_to_compare_or_report(monkeypatch):
    """A bracket becomes a Vec only to be compared, and a Serre sum, tested
    on its dict, only to be reported: 3,900 Vecs at l = 3, d = 8. A Vec per
    Serre sum made 4,416."""
    calls = _count_calls(monkeypatch, Vec, "__init__")
    assert fk.verify_relations(3, 8)["status"] == "ok"
    assert calls["calls"] <= 3900


def test_relations_never_changes_a_cached_image(monkeypatch):
    """Words start from the image memo's dicts, so the suite must only read
    them: every image explicit_action returned is unchanged afterwards."""
    plain = fk.explicit_action
    seen = []

    def recorded(g, v, l):
        out = plain(g, v, l)
        seen.append((out.terms, dict(out.terms)))
        return out

    monkeypatch.setattr(fk, "explicit_action", recorded)
    assert fk.verify_relations(3, 6)["status"] == "ok"
    assert len(seen) > 100
    assert all(terms == before for terms, before in seen)


@pytest.mark.parametrize("g", ["e_1", "e_0", "f_2", "f_0", "h_1", "p_1(2)", "p_0(-1)"])
def test_each_vertex_route_call_builds_one_vec(monkeypatch, g):
    """fk_action lifts each generator once: e_i and f_i dress the root
    mode's pairs, and p_i(m) negates the strand-q pairs, inside one
    Vec.apply. A separate dressing and heis_tensor difference built 2 or 3."""
    v = fk.transport(Vec({(5, 3, 2, 2, 1): 1, (4, 4, 3): -2, (6, 2): 3}), 3)
    calls = _count_calls(monkeypatch, Vec, "__init__")
    assert fk.fk_action(g, v, 3)
    assert calls["calls"] == 1


def test_intertwining_needs_few_kernel_entries():
    """A root's vertex operator is two rank-one fields on one shape each, so
    the l = 3, d = 10 suite fills 118 kernel entries; the tuple-of-shapes
    kernel it replaced filled 1,716, and summing strips past the largest
    one a shape can lose 126."""
    _clear_kernel_memos()
    assert fk.verify_intertwining(3, 10)["status"] == "ok"
    assert fock._field_on_shape.cache_info().misses <= 56
    assert fock._gamma_on_shape.cache_info().misses <= 62


def test_intertwining_transports_each_shape_once(monkeypatch):
    """At l = 3, d = 10 the source and output shapes number 845; one
    transport per output term made 4,657 core/quotient calls."""
    calls = _count_calls(monkeypatch, core_quotient, "core_and_quotient")
    assert fk.verify_intertwining(3, 10)["status"] == "ok"
    assert calls["calls"] <= 845
