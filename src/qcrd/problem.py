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
      "solver": {"restarts": 8, "max_iterations": 2000,
                 "lagrange_grid": [...], "convergence_tol": 1e-7,
                 "rng_seed": 0}                                  # optional
    }

One :meth:`ProblemSpec.build` serves both settings; a spec without
``side_info`` is the d_B = 1 case.  With ``side_info`` the joint state is the
source and the observable blocks act on reference (x) side information; a
``classical-cost`` observable is lifted as sum_z d(z, x) |w_z><w_z|_R (x) I_B
over the joint eigenbasis, so it needs dA*dB cost rows.  ``paper-example``
and ``eigenbasis`` observables need a plain source.  The solver options
``restarts`` and ``rng_seed`` are still parsed and validated, but the
solver is deterministic and ignores them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .distortion import (
    DistortionObservable,
    classical_cost_observable,
    eigenbasis_observable,
    example_observable,
)
from .operators import eig_hermitian, tensor, trace_distance
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
    """Validated problem definition ready for the solvers."""

    source: DensityOperator
    observable_spec: dict
    outcomes: int | None = None
    joint: DensityOperator | None = None
    side_dims: tuple[int, int] | None = None
    purification_vector: np.ndarray | None = None
    solver: SolverOptions = SolverOptions()
    preset: str | None = None

    @property
    def has_side_info(self) -> bool:
        return self.joint is not None

    def build(self) -> tuple[Purification, DistortionObservable, int]:
        """Purification, observable, and outcome count; the purification is
        tripartite (R, A, B) with ``side_info`` and bipartite (R, A) without."""
        if self.has_side_info:
            psi = purify_joint(self.joint, self.side_dims)
        elif self.purification_vector is not None:
            dim = self.source.dim
            psi = Purification(self.purification_vector, dim, (dim,))
            if trace_distance(psi.reduced_system_state(), self.source.mat) > 1e-9:
                raise ProblemSpecError("supplied purification does not reduce to the source state")
        else:
            psi = purify(self.source)
        obs = self._build_observable(psi.side_dim)
        return psi, obs, self._resolve_outcomes(obs)

    def build_qsi(self) -> tuple[Purification, DistortionObservable, int]:
        """:meth:`build` for a spec that must carry ``side_info``."""
        if not self.has_side_info:
            raise ProblemSpecError("side_info with dims is required for the QSI setting")
        return self.build()

    def _resolve_outcomes(self, obs: DistortionObservable) -> int:
        if self.outcomes is None:
            return obs.outcome_count
        if self.outcomes != obs.outcome_count:
            raise ProblemSpecError(
                f"outcomes={self.outcomes} does not match the observable's {obs.outcome_count} blocks"
            )
        return self.outcomes

    def _build_observable(self, d_b: int) -> DistortionObservable:
        kind = self.observable_spec.get("kind")
        if self.has_side_info and kind in (PAPER_PRESET, "eigenbasis"):
            raise ProblemSpecError(f"observable kind {kind!r} is not supported with side information")
        if kind == PAPER_PRESET:
            return example_observable()
        if kind == "eigenbasis":
            return eigenbasis_observable(self.source)
        if kind == "classical-cost":
            # one row per eigenvector of the state that R mirrors
            state = self.joint if self.has_side_info else self.source
            costs = np.asarray(self.observable_spec["costs"], dtype=float)
            if costs.shape[0] != state.dim:
                raise ProblemSpecError(
                    f"classical-cost has {costs.shape[0]} rows for a state of dimension {state.dim}"
                )
            base = classical_cost_observable(costs, eig_hermitian(state.mat).eigenvectors)
            return DistortionObservable(tuple(tensor(b, np.eye(d_b)) for b in base.blocks))
        if kind == "blocks":
            return DistortionObservable(tuple(self.observable_spec["blocks"]))
        raise ProblemSpecError(f"unknown observable kind {kind!r}")


def paper_problem(solver: SolverOptions | None = None) -> ProblemSpec:
    """The worked qubit example: |+>/|0> source with its natural observable."""
    return ProblemSpec(
        source=example_source(),
        observable_spec={"kind": PAPER_PRESET},
        outcomes=2,
        solver=solver or SolverOptions(),
        preset=PAPER_PRESET,
    )


def _parse_solver(data) -> SolverOptions:
    if data is None:
        return SolverOptions()
    if not isinstance(data, dict):
        raise ProblemSpecError("solver must be an object")
    known = {"restarts", "max_iterations", "lagrange_grid", "convergence_tol", "rng_seed"}
    unknown = set(data) - known
    if unknown:
        raise ProblemSpecError(f"unknown solver options {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("restarts", "max_iterations", "rng_seed", "convergence_tol"):
        if key in kwargs:
            kwargs[key] = _parse_number(kwargs[key], f"solver {key}", integer=key != "convergence_tol")
    if kwargs.get("rng_seed", 0) < 0:
        raise ProblemSpecError("solver rng_seed must be non-negative")
    if "lagrange_grid" in kwargs:
        grid = kwargs["lagrange_grid"]
        if not isinstance(grid, list):
            raise ProblemSpecError("solver lagrange_grid must be a list of multipliers")
        kwargs["lagrange_grid"] = tuple(_parse_number(m, "solver lagrange_grid entry") for m in grid)
    try:
        return SolverOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProblemSpecError(f"invalid solver options: {exc}") from None


def _parse_observable_spec(data) -> dict:
    if data == PAPER_PRESET:
        return {"kind": PAPER_PRESET}
    if not isinstance(data, dict) or "kind" not in data:
        raise ProblemSpecError("observable must be 'paper-example' or an object with a 'kind'")
    kind = data["kind"]
    if kind in (PAPER_PRESET, "eigenbasis"):
        return {"kind": kind}
    if kind == "classical-cost":
        costs = data.get("costs")
        if (not isinstance(costs, list) or not costs or not all(isinstance(r, list) for r in costs)
                or len({len(r) for r in costs}) != 1):
            raise ProblemSpecError("classical-cost observable needs a 'costs' matrix of equal-length rows")
        return {"kind": kind, "costs": [[_parse_number(v, "cost entry") for v in row] for row in costs]}
    if kind == "blocks":
        blocks = data.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise ProblemSpecError("blocks observable needs a nonempty 'blocks' list")
        return {"kind": kind, "blocks": tuple(_parse_matrix(b, f"block {i}") for i, b in enumerate(blocks))}
    raise ProblemSpecError(f"unknown observable kind {kind!r}")


def parse_problem(data: dict) -> ProblemSpec:
    """Validate a decoded JSON document into a :class:`ProblemSpec`."""
    if not isinstance(data, dict):
        raise ProblemSpecError("problem definition must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ProblemSpecError(f"schema must be {SCHEMA_VERSION}, got {data.get('schema')!r}")
    known = {"schema", "source", "side_info", "observable", "outcomes", "purification", "solver"}
    unknown = set(data) - known
    if unknown:
        raise ProblemSpecError(f"unknown fields {sorted(unknown)}")

    joint = None
    side_dims = None
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
        try:
            joint = DensityOperator(_parse_matrix(side["matrix"], "side_info matrix"))
        except ValueError as exc:
            raise ProblemSpecError(f"invalid side_info state: {exc}") from None

    source_data = data.get("source")
    if source_data == PAPER_PRESET:
        source = example_source()
        preset = PAPER_PRESET
    elif isinstance(source_data, dict) and "matrix" in source_data:
        try:
            source = DensityOperator(_parse_matrix(source_data["matrix"], "source matrix"))
        except ValueError as exc:
            raise ProblemSpecError(f"invalid source state: {exc}") from None
        preset = None
    elif source_data is None and joint is not None:
        source = _marginal_source(joint, side_dims)
        preset = None
    else:
        raise ProblemSpecError("source must be 'paper-example' or an object with a 'matrix'")

    if joint is not None and side_dims is not None and source_data is not None:
        marginal = _marginal_source(joint, side_dims)
        if trace_distance(marginal.mat, source.mat) > 1e-9:
            raise ProblemSpecError("source does not match the A-marginal of side_info")

    purification_vector = None
    if "purification" in data:
        if joint is not None:
            raise ProblemSpecError("purification cannot be combined with side_info")
        purification_vector = _parse_vector(data["purification"], "purification")

    outcomes = data.get("outcomes")
    if outcomes is not None:
        outcomes = _parse_number(outcomes, "outcomes", integer=True)
        if outcomes < 1:
            raise ProblemSpecError("outcomes must be at least 1")

    return ProblemSpec(
        source=source,
        observable_spec=_parse_observable_spec(data.get("observable")),
        outcomes=outcomes,
        joint=joint,
        side_dims=side_dims,
        purification_vector=purification_vector,
        solver=_parse_solver(data.get("solver")),
        preset=preset,
    )


def _marginal_source(joint: DensityOperator, side_dims: tuple[int, int]) -> DensityOperator:
    from .operators import partial_trace

    return DensityOperator(partial_trace(joint.mat, list(side_dims), [0]))


def load_problem(path) -> ProblemSpec:
    """Read and validate a JSON problem definition from ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemSpecError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemSpecError(f"invalid JSON in {path}: {exc}") from None
    return parse_problem(data)
