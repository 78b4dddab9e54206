"""JSON problem definitions and the built-in presets for the CLI.

Schema (version 1): complex numbers are ``[re, im]`` pairs (bare reals are
also accepted), matrices are row-major nested lists.

::

    {
      "schema": 1,
      "source": "paper-example" | {"matrix": [[...], ...]},
      "side_info": {"matrix": [[...], ...], "dims": [dA, dB]},   # optional
      "observable": "paper-example"
                    | {"kind": "paper-example"}
                    | {"kind": "eigenbasis"}
                    | {"kind": "classical-cost", "costs": [[...], ...]}
                    | {"kind": "blocks", "blocks": [[[...]], ...]},
      "outcomes": 2,                                             # optional
      "purification": [ ... amplitudes ... ],                    # optional
      "solver": {"max_iterations": 2000, "lagrange_grid": [...],
                 "convergence_tol": 1e-7}                        # optional
    }

:func:`parse_problem` validates a spec and builds it once: the purification,
tripartite (R, A, B) with ``side_info`` and bipartite (R, A) without (the
d_B = 1 case), and the observable, whose blocks act on R (x) B.  A spec the
solvers cannot run, such as blocks of the wrong dimension, a non-Hermitian
block or a purification of the wrong length, fails there with
:class:`ProblemSpecError`; :meth:`ProblemSpec.build` returns what was built.
With ``side_info`` the joint state is the source, and a ``classical-cost``
observable is lifted as sum_z d(z, x) |w_z><w_z|_R (x) I_B over the joint
eigenbasis, so it needs dA*dB cost rows.  ``paper-example`` and
``eigenbasis`` observables need a plain source.  The solver options
``restarts`` and ``rng_seed`` are still parsed and validated, but the
solver is deterministic and ignores them.  A problem does not record
whether it came from a preset: a curve's default grid is derived from the
built problem alone, by :func:`qcrd.solver.default_grid`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .distortion import (
    DistortionObservable,
    classical_cost_observable,
    eigenbasis_observable,
    example_observable,
)
from .operators import eig_hermitian, partial_trace, trace_distance
from .solver import SolverOptions
from .states import (
    DensityOperator,
    Purification,
    example_source,
    purify,
    purify_joint,
)

SCHEMA_VERSION = 1

PAPER_PRESET = "paper-example"


class ProblemSpecError(ValueError):
    """A problem definition is malformed or inconsistent."""


def _parse_scalar(entry) -> complex:
    def real(v):
        return isinstance(v, Real) and not isinstance(v, bool)

    if real(entry):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(real(v) for v in entry):
        return complex(entry[0], entry[1])
    raise ProblemSpecError(f"expected a real number or [re, im] pair, got {entry!r}")


def _parse_number(value, what: str, integer: bool = False):
    """A JSON number, never a boolean; ``integer`` also demands an integral value."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not isinstance(value, Real) or (integer and not integral):
        kind = "an integer" if integer else "a real number"
        raise ProblemSpecError(f"{what} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _parse_matrix(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ProblemSpecError(f"{what} must be a nonempty nested list of rows")
    try:
        return np.array([[_parse_scalar(v) for v in row] for row in rows], dtype=complex)
    except ProblemSpecError as exc:
        raise ProblemSpecError(f"{what}: {exc}") from None


def _parse_vector(entries, what: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ProblemSpecError(f"{what} must be a nonempty list")
    return np.array([_parse_scalar(v) for v in entries], dtype=complex)


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem, built once when it is parsed.

    The purification is tripartite (R, A, B) with ``side_info`` and bipartite
    (R, A) without; the observable's blocks act on R (x) B.
    """

    source: DensityOperator
    purification: Purification
    observable: DistortionObservable
    solver: SolverOptions = SolverOptions()

    @property
    def has_side_info(self) -> bool:
        return len(self.purification.system_dims) == 2

    def build(self) -> tuple[Purification, DistortionObservable, int]:
        """Purification, observable, and outcome count."""
        return self.purification, self.observable, self.observable.outcome_count

    def build_qsi(self) -> tuple[Purification, DistortionObservable, int]:
        """Deprecated: :meth:`build` for a spec that must carry ``side_info``."""
        if not self.has_side_info:
            raise ProblemSpecError("side_info with dims is required for the QSI setting")
        return self.build()


def paper_problem() -> ProblemSpec:
    """The worked qubit example, the |+>/|0> source with its natural observable:
    :func:`parse_problem` of the preset document, so the preset has one builder."""
    return parse_problem({"schema": SCHEMA_VERSION, "source": PAPER_PRESET, "observable": PAPER_PRESET})


def _built(what: str, make, *args):
    """``make(*args)``, a ``ValueError`` it raises reported as a :class:`ProblemSpecError`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ProblemSpecError(f"invalid {what}: {exc}") from None


def _parse_solver(data) -> SolverOptions:
    if data is None:
        return SolverOptions()
    if not isinstance(data, dict):
        raise ProblemSpecError("solver must be an object")
    unknown = set(data) - {f.name for f in fields(SolverOptions)}
    if unknown:
        raise ProblemSpecError(f"unknown solver options {sorted(unknown)}")
    # JSON may spell a count as an integral float, 2000.0
    kwargs = {key: _parse_number(value, f"solver {key}", integer=True)
              if key in ("restarts", "max_iterations", "rng_seed") else value
              for key, value in data.items()}
    try:
        return SolverOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProblemSpecError(f"invalid solver options: {exc}") from None


def _parse_observable(data, psi: Purification, state: DensityOperator) -> DistortionObservable:
    """The observable of a spec, for ``psi`` purifying ``state``."""
    if data == PAPER_PRESET:
        data = {"kind": PAPER_PRESET}
    if not isinstance(data, dict) or "kind" not in data:
        raise ProblemSpecError("observable must be 'paper-example' or an object with a 'kind'")
    kind = data["kind"]
    if kind in (PAPER_PRESET, "eigenbasis") and len(psi.system_dims) == 2:
        raise ProblemSpecError(f"observable kind {kind!r} is not supported with side information")
    if kind == PAPER_PRESET:
        obs = example_observable()
    elif kind == "eigenbasis":
        obs = eigenbasis_observable(state)
    elif kind == "classical-cost":
        rows = data.get("costs")
        if (not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows)
                or len({len(r) for r in rows}) != 1):
            raise ProblemSpecError("classical-cost observable needs a 'costs' matrix of equal-length rows")
        costs = np.array([[_parse_number(v, "cost entry") for v in row] for row in rows])
        # one row per eigenvector of the state that R mirrors
        if costs.shape[0] != state.dim:
            raise ProblemSpecError(
                f"classical-cost has {costs.shape[0]} rows for a state of dimension {state.dim}")
        # sum_z d(z, x) |w_z><w_z| (x) I_B: row z repeated over the vectors w_z (x) e_b
        obs = _built("classical-cost observable", classical_cost_observable,
                     np.repeat(costs, psi.side_dim, axis=0),
                     np.kron(eig_hermitian(state.mat).eigenvectors, np.eye(psi.side_dim)))
    elif kind == "blocks":
        blocks = data.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise ProblemSpecError("blocks observable needs a nonempty 'blocks' list")
        obs = _built("blocks observable", DistortionObservable,
                     tuple(_parse_matrix(b, f"block {i}") for i, b in enumerate(blocks)))
    else:
        raise ProblemSpecError(f"unknown observable kind {kind!r}")
    d_rb = psi.reference_dim * psi.side_dim
    if obs.dim != d_rb:
        raise ProblemSpecError(f"observable blocks have dimension {obs.dim}, expected reference*side {d_rb}")
    return obs


def parse_problem(data: dict) -> ProblemSpec:
    """Validate a decoded JSON document and build it into a :class:`ProblemSpec`."""
    if not isinstance(data, dict):
        raise ProblemSpecError("problem definition must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ProblemSpecError(f"schema must be {SCHEMA_VERSION}, got {data.get('schema')!r}")
    known = {"schema", "source", "side_info", "observable", "outcomes", "purification", "solver"}
    unknown = set(data) - known
    if unknown:
        raise ProblemSpecError(f"unknown fields {sorted(unknown)}")

    joint = None
    if "side_info" in data:
        side = data["side_info"]
        if not isinstance(side, dict) or "matrix" not in side or "dims" not in side:
            raise ProblemSpecError("side_info needs 'matrix' and 'dims'")
        dims = side["dims"]
        if not (isinstance(dims, list) and len(dims) == 2):
            raise ProblemSpecError("side_info dims must be [dA, dB]")
        side_dims = tuple(_parse_number(d, "side_info dims entry", integer=True) for d in dims)
        if min(side_dims) < 1:
            raise ProblemSpecError(f"side_info dims must be positive, got {list(side_dims)}")
        joint = _built("side_info state", DensityOperator, _parse_matrix(side["matrix"], "side_info matrix"))
        marginal = DensityOperator(_built("side_info dims", partial_trace, joint.mat, side_dims, [0]))

    source_data = data.get("source")
    if source_data == PAPER_PRESET:
        source = example_source()
    elif isinstance(source_data, dict) and "matrix" in source_data:
        source = _built("source state", DensityOperator, _parse_matrix(source_data["matrix"], "source matrix"))
    elif source_data is None and joint is not None:
        source = marginal
    else:
        raise ProblemSpecError("source must be 'paper-example' or an object with a 'matrix'")
    if joint is not None and trace_distance(marginal.mat, source.mat) > 1e-9:
        raise ProblemSpecError("source does not match the A-marginal of side_info")

    if "purification" in data:
        if joint is not None:
            raise ProblemSpecError("purification cannot be combined with side_info")
        psi = _built("purification", Purification, _parse_vector(data["purification"], "purification"),
                     source.dim, (source.dim,))
        if trace_distance(psi.reduced_system_state(), source.mat) > 1e-9:
            raise ProblemSpecError("supplied purification does not reduce to the source state")
    else:
        psi = purify(source) if joint is None else purify_joint(joint, side_dims)

    obs = _parse_observable(data.get("observable"), psi, source if joint is None else joint)
    if data.get("outcomes") is not None:
        outcomes = _parse_number(data["outcomes"], "outcomes", integer=True)
        if outcomes != obs.outcome_count:
            raise ProblemSpecError(
                f"outcomes={outcomes} does not match the observable's {obs.outcome_count} blocks")
    return ProblemSpec(source, psi, obs, _parse_solver(data.get("solver")))


def load_problem(path) -> ProblemSpec:
    """Read, validate and build a JSON problem definition from ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemSpecError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemSpecError(f"invalid JSON in {path}: {exc}") from None
    return parse_problem(data)
