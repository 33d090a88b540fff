"""The versioned wire schema: what travels between clients and the service.

One submission format, one job envelope, one result format:

* **submissions** carry either a ``problem`` (a :mod:`repro.api.codec`
  tree of any kind: ``formula``, ``module``, ``protocol``; decoding is
  the one validity gate, so a tree whose formulas no backend could
  translate is refused here) or a ``spec`` (a campaign
  :class:`~repro.campaign.specs.ScenarioSpec` dict, lifted through
  :func:`~repro.api.problem_from_spec`), plus optional
  ``options`` (any subset of :class:`~repro.api.Options` fields) and an
  optional ``delta_of`` anchor job id for warm re-verification.  The
  ``solver`` option must be ``None`` or a registered backend name
  (:func:`~repro.api.available_backends`): an external
  ``dimacs:<command>`` name would make the hub or a satellite run the
  command, so only in-process callers of :mod:`repro.api` may use one;
* **job ids** are content addresses: a sha256 over the problem
  fingerprint (the digest of the canonical codec tree the journal
  stores, :func:`~repro.api.problem_fingerprint`), the options that
  change an answer and the delta anchor — resubmitting the same work
  yields the same id, which is what makes submission idempotent and
  the cache the shared result store;
* **results** are exactly :func:`repro.api.result_to_json` — the same
  payload the batch cache stores, so the service and ``solve_many``
  interoperate on one format.

``SERVICE_SCHEMA`` versions all of it: a submission declaring a
different version is rejected at the edge, and the queue journal records
the version so a future reader can refuse entries it no longer
understands.  This schema is the contract the distributed execution
fabric (ROADMAP item 2) reuses: remote satellites claim journal entries
and write ``result_to_json`` payloads into the shared cache — nothing
more is needed on the wire.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.api.backends import available_backends
from repro.api.batch import batch_cache_key
from repro.api.codec import (
    CodecError,
    problem_from_json,
    problem_to_json,
    tree_fingerprint,
)
from repro.api.options import Options
from repro.api.problems import Problem, problem_from_spec

SERVICE_SCHEMA = 1
"""Bump on any incompatible change to the submission/envelope format."""

_SUBMISSION_KEYS = {"schema", "problem", "spec", "options", "delta_of",
                    "label"}


class SchemaError(ValueError):
    """A submission the service cannot accept (HTTP 400 at the edge)."""


@dataclass(frozen=True)
class JobSubmission:
    """A validated, canonicalized job submission.

    ``problem_payload`` is the canonical codec tree (re-encoded from the
    decoded problem, so equivalent spellings canonicalize identically);
    ``job_id``/``fingerprint``/``cache_key`` are its content addresses.
    The decoded :class:`~repro.api.problems.Problem` itself is *not*
    kept: the journal stores plain JSON, and workers re-decode lazily.
    """

    job_id: str
    fingerprint: str
    cache_key: str
    kind: str
    problem_payload: dict
    options: Options
    delta_of: str | None = None
    label: str = ""

    def payload(self) -> dict:
        """The canonical JSON the queue journals for this submission."""
        return {
            "schema": SERVICE_SCHEMA,
            "problem": self.problem_payload,
            "options": self.options.to_json(),
            "delta_of": self.delta_of,
            "label": self.label,
        }


def job_id_for(fingerprint: str, options: Options,
               delta_of: str | None = None) -> str:
    """Content address of one job: the problem fingerprint, the options
    that change an answer (:meth:`Options.cache_signature`, every field
    but ``timeout``) and the delta anchor.  Resubmitting with another
    ``timeout`` is the *same* job."""
    payload = json.dumps(
        {
            "schema": SERVICE_SCHEMA,
            "fingerprint": fingerprint,
            "options": options.cache_signature(),
            "delta_of": delta_of,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


RETIRED_OPTIONS = ("memoize", "workers", "cache_dir", "max_paths")
"""Former :class:`~repro.api.Options` fields, which every job journaled
while they existed carries.  ``memoize``, ``workers`` and ``cache_dir``
never changed an answer.  ``max_paths`` capped the protocol explorer's
weighted leaves and let a capped search answer HOLDS; ``max_states``
replaced it, so such a job now runs under the default ``max_states``."""


def decode_options(payload, *, journaled: bool = False) -> Options:
    """Decode a job's ``options`` object (missing or null: defaults).

    Raises :class:`SchemaError` for invalid fields, and for a ``solver``
    that is not a registered backend: the service never resolves
    ``dimacs:`` names, whose command it would spawn.
    A ``journaled`` object (a queued job's, read back by the pool or a
    satellite) may still carry :data:`RETIRED_OPTIONS`, which are
    dropped; a new submission naming one is refused.
    """
    if journaled and isinstance(payload, dict):
        payload = {name: value for name, value in payload.items()
                   if name not in RETIRED_OPTIONS}
    try:
        options = Options.from_json({} if payload is None else payload)
    except ValueError as exc:
        raise SchemaError(f"invalid options: {exc}") from exc
    registered = available_backends()
    if options.solver is not None and options.solver not in registered:
        raise SchemaError(
            f"invalid options: solver {options.solver!r} is not a "
            f"registered backend; the service runs only {registered} "
            f"(or null to pick one by problem kind)"
        )
    return options


def decode_problem(payload) -> Problem:
    """Decode a problem tree (all three kinds) into a problem whose
    formulas a backend can translate, or raise :class:`SchemaError` with
    the codec's message."""
    try:
        return problem_from_json(payload)
    except CodecError as exc:
        raise SchemaError(f"invalid problem payload: {exc}") from exc


def decode_submission(payload) -> JobSubmission:
    """Validate and canonicalize one POST /v1/jobs body.

    Accepts ``{"problem": <codec tree>}`` or ``{"spec": <campaign spec
    dict>}`` (exactly one), optional ``options``/``delta_of``/``label``,
    and an optional ``schema`` declaration that must match
    :data:`SERVICE_SCHEMA`.  Every failure raises :class:`SchemaError`
    with an actionable message.  The canonical tree is fingerprinted
    once; the job id and the cache key both derive from that digest.
    """
    if not isinstance(payload, dict):
        raise SchemaError(
            f"submission must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _SUBMISSION_KEYS)
    if unknown:
        raise SchemaError(
            f"unknown submission key(s) {unknown}; valid keys are: "
            f"{sorted(_SUBMISSION_KEYS)}"
        )
    declared = payload.get("schema", SERVICE_SCHEMA)
    if declared != SERVICE_SCHEMA:
        raise SchemaError(
            f"unsupported schema version {declared!r}; this service "
            f"speaks schema {SERVICE_SCHEMA}"
        )
    has_problem = "problem" in payload
    has_spec = "spec" in payload
    if has_problem == has_spec:
        raise SchemaError(
            "a submission needs exactly one of 'problem' (a codec tree) "
            "or 'spec' (a campaign scenario spec)"
        )
    options = decode_options(payload.get("options"))
    if has_problem:
        problem = decode_problem(payload["problem"])
    else:
        # Imported lazily: repro.campaign imports repro.api, and only
        # spec submissions need it.
        from repro.campaign.specs import ScenarioSpec

        try:
            spec = ScenarioSpec.from_dict(payload["spec"])
            problem = problem_from_spec(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"invalid spec: {exc}") from exc
    delta_of = payload.get("delta_of")
    if delta_of is not None and (not isinstance(delta_of, str)
                                 or not delta_of):
        raise SchemaError(
            f"delta_of must be a job id string (a previously submitted "
            f"job to anchor the warm re-verification on), got "
            f"{delta_of!r}"
        )
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise SchemaError(f"label must be a string, got {label!r}")
    try:
        problem_payload = problem_to_json(problem)
    except CodecError as exc:
        raise SchemaError(f"problem has no wire form: {exc}") from exc
    fingerprint = tree_fingerprint(problem_payload)
    return JobSubmission(
        job_id=job_id_for(fingerprint, options, delta_of),
        fingerprint=fingerprint,
        cache_key=batch_cache_key(fingerprint, options),
        kind=problem_payload["kind"],
        problem_payload=problem_payload,
        options=options,
        delta_of=delta_of,
        label=label,
    )
