import importlib
import pkgutil

import hypothesis.strategies as st
from hypothesis import settings

import affine_fock

settings.register_profile("desk", max_examples=60, deadline=None)
settings.load_profile("desk")


@st.composite
def partitions(draw, max_size=12):
    """Random partition of size at most max_size."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining, bound = n, n
    while remaining:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound, remaining = p, remaining - p
    return tuple(parts)


levels = st.integers(min_value=2, max_value=5)


def stub_everywhere(monkeypatch, plain, stub) -> int:
    """Bind stub in place of the function plain wherever the package binds
    it, in any module and under any name; returns the number of bindings."""
    modules = [affine_fock] + [
        importlib.import_module(f"affine_fock.{info.name}")
        for info in pkgutil.iter_modules(affine_fock.__path__)
        if info.name != "__main__"  # importing it would run the CLI
    ]
    bound = 0
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is plain:
                monkeypatch.setattr(module, key, stub)
                bound += 1
    return bound
