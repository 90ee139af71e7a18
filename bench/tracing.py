"""Span tracing of k3bv's public functions, from outside the package.

``Tracer.install`` rebinds each function in ``SPANS`` to a wrapper that
records a span (name, start, end, parent, op id), in its home module and
in every ``k3bv`` module that imported it by name; ``uninstall`` puts
the originals back. Nothing under ``src/k3bv`` changes, and the untraced
runs never call ``install``. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

from k3bv import cli, domains, involution, jsonio, lattice, matrixops, mirror, mirrormap


def _int_bits(xs) -> int:
    return max((abs(int(x)).bit_length() for x in xs), default=0)


def _rat_bits(xs) -> int:
    best = 0
    for x in xs:
        f = Fraction(x)
        best = max(best, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return best


def _rows(*mats):
    return (x for m in mats for row in m for x in row)


# Bit-size probes run on a span's output after its op has finished, so
# they cost no traced time.
def _snf_bits(out):
    return {"matrixops.smith_normal_form.max_bits": _int_bits(_rows(out.left, out.diag, out.right))}


def _complement_bits(out):
    return {"lattice.orthogonal_complement.max_bits": _int_bits(_rows(out.basis))}


def _mirror_bits(out):
    # The Gram matrix of M-check in the induced form of T: the size of the
    # integers every later step over M-check works with.
    b = out.m_check.basis
    gram = matrixops.mat_mul(matrixops.mat_mul(b, out.t.gram()), matrixops.transpose(b))
    return {"mirror.m_check.max_bits": _int_bits(_rows(gram))}


def _phi_bits(out):
    return {"mirrormap.omega.max_bits": _rat_bits(tuple(out.re) + tuple(out.im))}


# (span name, owner, attribute, bit-size probe). The owner is a module
# or, for methods, a class.
SPANS = (
    ("matrixops.smith_normal_form", matrixops, "smith_normal_form", _snf_bits),
    ("matrixops.integer_kernel", matrixops, "integer_kernel", None),
    ("matrixops.solve_rational", matrixops, "solve_rational", None),
    ("matrixops.rank_rational", matrixops, "rank_rational", None),
    ("matrixops.rational_inverse", matrixops, "rational_inverse", None),
    ("matrixops.bareiss_det", matrixops, "bareiss_det", None),
    ("matrixops.mat_vec", matrixops, "mat_vec", None),
    ("lattice.orthogonal_complement", lattice, "orthogonal_complement", _complement_bits),
    ("lattice.saturation", lattice, "saturation", None),
    ("lattice.coordinates_in", lattice, "coordinates_in", None),
    ("lattice.same_sublattice", lattice, "same_sublattice", None),
    ("lattice.det_and_signature", lattice, "det_and_signature", None),
    ("mirror.check_admissible", mirror, "check_admissible", None),
    ("mirror.construct_mirror", mirror, "construct_mirror", _mirror_bits),
    ("mirrormap.phi", mirrormap, "phi", _phi_bits),
    ("mirrormap.phi_inverse", mirrormap, "phi_inverse", None),
    ("domains.quadrics", domains.PeriodVector, "omega_dot_omega", None),
    ("domains.quadrics", domains.PeriodVector, "omega_dot_conjugate", None),
    ("domains.in_primed", domains, "in_primed", None),
    ("involution.LatticeInvolution", involution.LatticeInvolution, "__post_init__", None),
    ("involution.invariant_sublattices", involution, "invariant_sublattices", None),
    ("involution.mirror_involution", involution, "mirror_involution", None),
    ("involution.reflection_through", involution, "reflection_through", None),
    ("jsonio.load_json_arg", jsonio, "load_json_arg", None),
    ("jsonio.dumps", jsonio, "dumps", None),
    ("cli.run", cli, "run", None),
)


class Tracer:
    """Records nested spans; one op id per benchmark op."""

    def __init__(self):
        # Each span: [name, start_ns, end_ns, parent index, op id, output].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False  # spans are recorded only inside an op
        self.bits: dict[str, int] = {}
        self._probes: dict[str, object] = {}
        self._pending: list[int] = []
        self._saved: list[tuple] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True

    def end_op(self) -> None:
        """Stop recording; apply bit-size probes to this op's outputs,
        then drop them."""
        self.active = False
        for idx in self._pending:
            span = self.spans[idx]
            for key, value in self._probes[span[0]](span[5]).items():
                self.bits[key] = max(self.bits.get(key, 0), value)
            span[5] = None
        self._pending.clear()

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self.stack
        if probe is not None:
            self._probes[name] = probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            # cli.run gets one span name per command, e.g. cli.run.mirror.phi.
            span_name = name if name != "cli.run" else "cli.run." + ".".join(args[0][:2])
            idx = len(spans)
            spans.append([span_name, 0, 0, stack[-1] if stack else -1, self.op_id, None])
            stack.append(idx)
            spans[idx][1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter_ns()
                stack.pop()
            if probe is not None:
                spans[idx][5] = out
                self._pending.append(idx)
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "k3bv" or key.startswith("k3bv.")]
        for name, owner, attr, probe in SPANS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, probe)
            targets = [owner] + [m for m in modules
                                 if m is not owner and m.__dict__.get(attr) is original]
            for target in targets:
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _child_ns(self) -> list[int]:
        """Per span, the summed duration of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return child_ns

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total ns, self ns (total minus children)."""
        stats: dict[str, dict] = {}
        for (name, start, end, _, _, _), children in zip(self.spans, self._child_ns()):
            s = stats.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["ns"] += end - start
            s["self_ns"] += end - start - children
        return stats

    def nesting_errors(self) -> int:
        """Spans whose interval leaves their parent's, or whose children
        together last longer than they do."""
        errors = 0
        for _, start, end, parent, op, _ in self.spans:
            p = self.spans[parent] if parent >= 0 else None
            if p is not None and (start < p[1] or end > p[2] or op != p[4]):
                errors += 1
        for span, children in zip(self.spans, self._child_ns()):
            if children > span[2] - span[1]:
                errors += 1
        return errors

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")

