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
from affine_fock.partitions import LaurentPoly, Vec

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
]


@pytest.mark.parametrize(
    "suite, l, degree, breaks, digest",
    MISMATCHES,
    # a degree-4 pin is named by its suite alone, a pin at scale by its size
    ids=[m[0] if m[2] == 4 else f"{m[0]}-l{m[1]}-d{m[2]}" for m in MISMATCHES],
)
def test_mismatch_report_bytes(capsys, monkeypatch, suite, l, degree, breaks, digest):
    breaks(monkeypatch)
    code = cli.main(["verify", "--suite", suite, "--l", str(l), "--degree", str(degree)])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 1 and report["status"] == "mismatch" and report["failures"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    is shared across fields: 14,198 hits at d = 9. A tuple-of-shapes layer
    between them used to ask it each key once (0 hits)."""
    _clear_kernel_memos()
    assert fock.verify_boson_fermion(9, 2)["status"] == "ok"
    assert fock._gamma_on_shape.cache_info().hits == 14198


def test_boson_fermion_builds_one_vec_per_route(monkeypatch):
    """Each check builds one Vec on the direct side and one on the kernel
    side, and each label its basis vector: 31,385 at d = 9. Going through a
    one-term Vec per label and Vec.apply made 46,835."""
    calls = _count_calls(monkeypatch, Vec, "__init__")
    assert fock.verify_boson_fermion(9, 2)["status"] == "ok"
    assert calls["calls"] <= 31385


def test_intertwining_needs_few_kernel_entries():
    """A root's vertex operator is two rank-one fields on one shape each, so
    the l = 3, d = 10 suite fills 126 kernel entries; the tuple-of-shapes
    kernel it replaced filled 1,716."""
    _clear_kernel_memos()
    assert fk.verify_intertwining(3, 10)["status"] == "ok"
    assert fock._field_on_shape.cache_info().misses <= 56
    assert fock._gamma_on_shape.cache_info().misses <= 70


def test_intertwining_transports_each_shape_once(monkeypatch):
    """At l = 3, d = 10 the source and output shapes number 845; one
    transport per output term made 4,657 core/quotient calls."""
    calls = _count_calls(monkeypatch, core_quotient, "core_and_quotient")
    assert fk.verify_intertwining(3, 10)["status"] == "ok"
    assert calls["calls"] <= 845
