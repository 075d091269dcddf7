"""Per-layer tracing of affine_fock from outside the package.

A Tracer replaces public functions (module attributes and Vec methods) with
wrappers that count calls and accumulate self time: a span's duration minus
the time covered by the traced spans it directly caused. Spans are
aggregated per metric name as they close, so memory stays flat however many
calls a workload makes.

A function is wrapped in every affine_fock module that binds it, because
callers such as frenkel_kac and cli import names from partitions and
frenkel_kac directly. A name that no longer exists is reported as absent
rather than raising, so a later rename only empties its metric.

Run as a script, it executes one CLI command under tracing and writes the
layer totals to stderr after a marker:

    PYTHONPATH=src python3 -B perfbench/tracing.py verify --suite relations --l 3
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "affine_fock"
MODULES = (
    "partitions",
    "maya",
    "core_quotient",
    "fock",
    "frenkel_kac",
    "equivariant",
    "cli",
)
STATS_MARKER = "perfbench-trace-stats "

# Metric name -> the (module, attribute) pairs it covers. "Vec.*" names are
# class attributes; the rest are module functions. maya.evaluate stays
# unwrapped: it is called so often that wrapper cost would swamp it.
LAYERS = {
    "partitions.enumerate_partitions": [("partitions", "enumerate_partitions")],
    "partitions.scan": [
        ("partitions", name)
        for name in (
            "residue_counts",
            "addable_of_residue",
            "removable_of_residue",
            "eta",
            "add_node",
            "remove_node",
        )
    ],
    "maya.from_partition": [("maya", "from_partition")],
    "maya.to_charge_partition": [("maya", "to_charge_partition")],
    "maya.strand": [("maya", "strand")],
    "maya.assemble_strands": [("maya", "assemble_strands")],
    "core_quotient.core_and_quotient": [("core_quotient", "core_and_quotient")],
    "core_quotient.cq_inverse": [("core_quotient", "cq_inverse")],
    "fock.Vec.init": [("fock", "Vec.__init__")],
    "fock.Vec.add": [("fock", "Vec.__add__"), ("fock", "Vec.__sub__")],
    "fock.Vec.apply": [("fock", "Vec.apply")],
    "fock.Vec.eq": [("fock", "Vec.__eq__")],
    "fock.psi": [("fock", "psi"), ("fock", "psi_star")],
    "fock.fermion_field_coeff": [("fock", "fermion_field_coeff")],
    "frenkel_kac.explicit_action": [("frenkel_kac", "explicit_action")],
    "frenkel_kac.fk_action": [("frenkel_kac", "fk_action")],
    "frenkel_kac.vertex_coeff": [("frenkel_kac", "vertex_coeff")],
    "frenkel_kac.transport": [("frenkel_kac", "transport")],
    "frenkel_kac.transport_inverse": [("frenkel_kac", "transport_inverse")],
    "equivariant.geometric_e": [("equivariant", "geometric_e")],
    "equivariant.normalization": [("equivariant", "normalization")],
    "equivariant.chars": [
        ("equivariant", "fixed_point_char"),
        ("equivariant", "infinity_chamber_char"),
    ],
    "cli.main": [("cli", "main")],
}


class Tracer:
    """Call counts and self time per metric name, for wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # One entry per open span: the time its traced children covered.
        self._child_time: list[float] = []

    def register(self, name: str) -> None:
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

    def wrap(self, name: str, fn):
        self.register(name)
        clock = self.clock
        stack = self._child_time
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += duration - children
                if stack:
                    stack[-1] += duration

        return traced

    def totals(self) -> dict:
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name]}
            for name in self.calls
        }


class Patches:
    """Installs wrappers over package attributes and restores them all."""

    def __init__(self, tracer: Tracer, layers=LAYERS):
        self.tracer = tracer
        self.layers = layers
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def _namespaces():
        mods = [importlib.import_module(PACKAGE)]
        for name in MODULES:
            try:
                mods.append(importlib.import_module(f"{PACKAGE}.{name}"))
            except ImportError:
                continue
        return mods

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Patches":
        namespaces = self._namespaces()
        for metric, targets in self.layers.items():
            self.tracer.register(metric)
            for module_name, path in targets:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or attr not in getattr(owner, "__dict__", {}):
                    self.absent.append(f"{module_name}.{path}")
                    continue
                original = owner.__dict__[attr]
                wrapped = self.tracer.wrap(metric, original)
                if owner_name:
                    self._set(owner, attr, wrapped)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, key, wrapped)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def run_cli(argv: list[str]) -> int:
    """Run one CLI command with every layer traced; stats go to stderr."""
    tracer = Tracer()
    with Patches(tracer) as patches:
        cli = importlib.import_module(f"{PACKAGE}.cli")
        code = cli.main(argv)
        sys.stdout.flush()
    payload = {"layers": tracer.totals(), "absent": patches.absent}
    sys.stderr.write(STATS_MARKER + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(run_cli(sys.argv[1:]))
