"""In-memory span recorder that wraps greenlab's public functions from outside.

``install`` replaces every traced function at each place it is bound: the
module that defines it and every greenlab module that imported it with
``from .x import name`` (those imports bind their own reference, so patching
only the defining module would miss them).  Methods are patched on their
class.  Each span is ``[name, start, end, parent, run]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``run`` says whether the
span belongs to the set-up phase or to ``greenlab.cli.run``.
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.lu_nnz: list = []
        self.run = "setup"
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


class _LUProxy:
    """Stands in for a SuperLU object so that its triangular solves are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside greenlab.solver."""

    def __init__(self, spla, tracer: Tracer):
        self._spla = spla
        traced_splu = tracer.wrap("solver.splu", spla.splu)

        def splu(*args, **kwargs):
            lu = traced_splu(*args, **kwargs)
            tracer.lu_nnz.append(int(lu.nnz))
            return _LUProxy(lu, tracer.wrap("solver.trisolve", lu.solve))

        self.splu = splu

    def __getattr__(self, attr):
        return getattr(self._spla, attr)


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def _public_methods(cls):
    return [name for name, obj in vars(cls).items()
            if inspect.isfunction(obj) and not name.startswith("_")]


def install(tracer: Tracer) -> None:
    """Patch greenlab in this process so that every layer call records a span."""
    import greenlab
    from greenlab import cli, green, io, mesh, problem, solver, verify

    modules = [greenlab, cli, green, io, mesh, problem, solver, verify]

    def patch(module, attr, span_name):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(span_name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def patch_methods(cls, layer, names):
        for attr in names:
            setattr(cls, attr, tracer.wrap(f"{layer}.{attr}", getattr(cls, attr)))

    for attr in ("load_scenario", "build_context"):
        patch(cli, attr, f"cli.{attr}")
    for check, (allowed, builder) in list(cli.CHECKS.items()):
        cli.CHECKS[check] = (allowed, tracer.wrap(f"verify.{check}", builder))
    for module, layer in ((green, "green"), (solver, "solver"), (mesh, "mesh"),
                          (io, "io")):
        for attr in _public_functions(module):
            patch(module, attr, f"{layer}.{attr}")
    patch_methods(problem.CoefficientField, "problem", ["tensor"])
    patch_methods(mesh.Mesh, "mesh", _public_methods(mesh.Mesh))
    patch_methods(mesh.Trajectory, "mesh", _public_methods(mesh.Trajectory))
    patch_methods(solver.ThetaScheme, "solver", _public_methods(solver.ThetaScheme))
    solver.ThetaScheme.__init__ = tracer.wrap("solver.scheme", solver.ThetaScheme.__init__)
    solver.spla = _SplaProxy(solver.spla, tracer)
