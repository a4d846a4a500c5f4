"""Vectorized batch scoring of authentication windows.

The seed's :class:`~repro.core.authenticator.ContextualAuthenticator` looped
over windows one at a time, transforming and scoring each 1-row matrix
separately.  The :class:`BatchScorer` groups a batch of windows by the
per-context model that will score them and runs one whole-matrix
``scale → decision-function → predict`` pass per model, which is the
difference between thousands of tiny BLAS calls and a handful of large ones.
:func:`score_requests` goes one step further for the serving frontend: it
coalesces many users' requests into a *single* fused projection over the
whole fleet batch wherever the selected models are affine
(:class:`~repro.ml.base.LinearDecisionRule`), falling back to per-model
passes for everything else.

Model selection replicates the seed authenticator exactly (including the
fall-back behaviour for unknown contexts and the single-model "w/o context"
mode), and both the confidence score and the accept decision are computed by
the same per-context model methods the per-window path used.  With the
paper's default linear kernel-ridge models the batched scores are bit-for-bit
identical to per-window scoring (the primal decision projection is batch-size
invariant); non-linear kernels agree to float rounding because their kernel
matrices are BLAS products.

This module sits *below* :mod:`repro.devices`: it scores any bundle exposing
the structural interfaces below (:class:`ScorableModel`,
:class:`ScorableBundle`) and never imports the device or service layers, so
the dependency graph stays acyclic with no lazy-import workarounds.  The
concrete model types live in :mod:`repro.devices.cloud`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.ml.base import LinearDecisionRule
from repro.sensors.types import CoarseContext

# --------------------------------------------------------------------- #
# context int-encoding
# --------------------------------------------------------------------- #

#: Canonical decode table: ``CONTEXT_BY_CODE[code]`` is the coarse context
#: a small-int context code stands for.  The scoring hot path carries
#: contexts as ``int8`` code arrays end-to-end (protocol requests encode at
#: construction, the gateway detector emits codes directly), so the
#: per-flush bucketing below is pure NumPy with no per-row Python.
CONTEXT_BY_CODE: tuple[CoarseContext, ...] = tuple(CoarseContext)

#: Canonical encode table, the inverse of :data:`CONTEXT_BY_CODE`.
CONTEXT_CODES: dict[CoarseContext, int] = {
    context: code for code, context in enumerate(CONTEXT_BY_CODE)
}

#: Sorted context label values, for vectorized label→code translation.
_SORTED_LABELS = np.array(sorted(context.value for context in CONTEXT_BY_CODE))
_CODE_BY_SORTED_LABEL = np.asarray(
    [CONTEXT_CODES[CoarseContext(label)] for label in _SORTED_LABELS],
    dtype=np.int8,
)


def encode_contexts(contexts: Sequence[CoarseContext] | np.ndarray) -> np.ndarray:
    """Encode per-window context labels as canonical ``int8`` codes.

    Accepts an already-encoded integer array (validated and passed through),
    a NumPy array of label strings (translated in one vectorized
    ``searchsorted`` pass — the context detector's output path), or any
    sequence of :class:`~repro.sensors.types.CoarseContext` / label values.

    Raises
    ------
    ValueError
        If an integer code is out of range or a label names no context.
    """
    if isinstance(contexts, np.ndarray):
        if np.issubdtype(contexts.dtype, np.integer):
            # Range-check BEFORE any narrowing cast: an out-of-range code
            # that wraps to a valid int8 value (e.g. 256 -> 0) must be
            # rejected, never silently scored under the wrong model.
            if len(contexts) and (
                int(contexts.min()) < 0
                or int(contexts.max()) >= len(CONTEXT_BY_CODE)
            ):
                raise ValueError(
                    f"context codes must be in [0, {len(CONTEXT_BY_CODE)}), "
                    f"got values outside that range"
                )
            return contexts.astype(np.int8, copy=False)
        if contexts.dtype.kind in "US":
            return _encode_labels(contexts)
    return np.fromiter(
        (
            CONTEXT_CODES[
                context
                if isinstance(context, CoarseContext)
                else CoarseContext(context)
            ]
            for context in contexts
        ),
        dtype=np.int8,
        count=len(contexts),
    )


def _encode_labels(labels: np.ndarray) -> np.ndarray:
    """Vectorized label-string → code translation (detector predictions)."""
    positions = np.searchsorted(_SORTED_LABELS, labels)
    positions = np.clip(positions, 0, len(_SORTED_LABELS) - 1)
    matched = _SORTED_LABELS[positions] == labels
    if not matched.all():
        bad = labels[~matched][0]
        raise ValueError(f"{bad!r} is not a known coarse context label")
    return _CODE_BY_SORTED_LABEL[positions]


#: Object-dtype decode table: one vectorized gather turns a whole code
#: array back into enum members (no per-row ``CONTEXT_BY_CODE[...]`` calls).
_CONTEXT_OBJECTS = np.fromiter(
    CONTEXT_BY_CODE, dtype=object, count=len(CONTEXT_BY_CODE)
)


def decode_contexts(codes: np.ndarray) -> tuple[CoarseContext, ...]:
    """The coarse contexts a code array stands for (inverse of encoding)."""
    return tuple(_CONTEXT_OBJECTS[np.asarray(codes, dtype=np.intp)])


@runtime_checkable
class ScorableModel(Protocol):
    """Structural interface of one per-context authentication model."""

    context: CoarseContext

    def batch_decisions(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(confidence scores, accept mask)`` for many rows."""
        ...

    def decision_rule(self) -> LinearDecisionRule | None:
        """Affine reduction of the model's scoring pass, if one exists."""
        ...


@runtime_checkable
class ScorableBundle(Protocol):
    """Structural interface of a trained per-context model bundle."""

    user_id: str
    models: Mapping[CoarseContext, ScorableModel]
    version: int


@dataclass(frozen=True)
class BatchScoreResult:
    """Scores and decisions for one batch of windows.

    Attributes
    ----------
    scores:
        Confidence score per window (positive = legitimate side).
    accepted:
        Boolean accept decision per window.
    model_contexts:
        The context of the model that actually scored each window (after
        fall-back resolution), matching the seed's per-decision ``context``.
    model_version:
        Version of the bundle that produced the scores.
    """

    scores: np.ndarray
    accepted: np.ndarray
    model_contexts: tuple[CoarseContext, ...]
    model_version: int

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def n_accepted(self) -> int:
        return int(np.count_nonzero(self.accepted))

    @property
    def accept_rate(self) -> float:
        return float(np.mean(self.accepted)) if len(self.scores) else 0.0


def offsets_from_lengths(lengths: Sequence[int] | np.ndarray) -> np.ndarray:
    """Slice boundaries of back-to-back request blocks: ``offsets[i:i+2]``
    brackets request *i*'s rows in the combined batch."""
    lengths = np.asarray(lengths, dtype=np.intp)
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def canonicalize_rows(features: np.ndarray) -> np.ndarray:
    """Canonicalise window features: float dtype, a lone vector becomes one row.

    The single place every entry point (protocol requests, the gateway's
    detector, the scorers) funnels feature input through, so promotion and
    validation policy cannot drift between them.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        # A lone vector is one window; an empty 1-D input is an empty
        # batch, not a single zero-width window.
        features = (
            features[np.newaxis, :] if len(features) else features.reshape(0, 0)
        )
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    return features


def _validate_batch(
    features: np.ndarray, contexts: Sequence[CoarseContext] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalise one request's ``(features, context codes)`` pair."""
    features = canonicalize_rows(features)
    codes = encode_contexts(contexts)
    if len(codes) != len(features):
        raise ValueError(
            f"got {len(features)} feature rows but {len(codes)} context labels"
        )
    return features, codes


def _rows_by_slot(row_slots: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Group row indices by their model slot, without per-row Python.

    Returns ``(slot, row_indices)`` pairs; each ``row_indices`` array holds
    the positions whose entry in *row_slots* equals ``slot``, in ascending
    row order (the stable sort preserves it).
    """
    order = np.argsort(row_slots, kind="stable")
    sorted_slots = row_slots[order]
    boundaries = np.flatnonzero(sorted_slots[1:] != sorted_slots[:-1]) + 1
    groups = np.split(order, boundaries)
    return [(int(row_slots[group[0]]), group) for group in groups if len(group)]


class BatchScorer:
    """Scores many windows against one user's model bundle in bulk.

    Parameters
    ----------
    bundle:
        The trained per-context model bundle to score against (any object
        satisfying :class:`ScorableBundle`, e.g.
        :class:`~repro.devices.cloud.TrainedModelBundle`).
    use_context:
        Mirrors :class:`~repro.core.authenticator.ContextualAuthenticator`:
        when false a single model (the stationary one if present) scores
        every window.
    """

    def __init__(self, bundle: ScorableBundle, use_context: bool = True) -> None:
        if not bundle.models:
            raise ValueError("the model bundle contains no trained models")
        self.bundle = bundle
        self.use_context = use_context

    # ------------------------------------------------------------------ #
    # model selection (mirrors ContextualAuthenticator._select_model)
    # ------------------------------------------------------------------ #

    def select_model(self, context: CoarseContext) -> ScorableModel:
        """The model that scores windows detected under *context*."""
        if not self.use_context:
            if CoarseContext.STATIONARY in self.bundle.models:
                return self.bundle.models[CoarseContext.STATIONARY]
            return next(iter(self.bundle.models.values()))
        if context in self.bundle.models:
            return self.bundle.models[context]
        # Degrade gracefully for never-enrolled contexts, as the seed did.
        return next(iter(self.bundle.models.values()))

    # ------------------------------------------------------------------ #

    def model_by_code(self) -> list[ScorableModel]:
        """Every context code's resolved model (the bucketing lookup table).

        Index *c* holds the model that scores windows whose detected context
        encodes to code *c* — fall-backs for never-enrolled contexts and the
        ``use_context=False`` single-model mode already applied.  Memoised
        per ``use_context`` value: the bundle is immutable, so resolution
        can never change under a fixed mode, and the serving hot path looks
        this table up once per scorer per coalesced flush.
        """
        cached = self.__dict__.get("_model_by_code")
        if cached is not None and cached[0] == self.use_context:
            return cached[1]
        models = [self.select_model(context) for context in CONTEXT_BY_CODE]
        self.__dict__["_model_by_code"] = (self.use_context, models)
        return models

    # ------------------------------------------------------------------ #

    def score(
        self, features: np.ndarray, contexts: Sequence[CoarseContext] | np.ndarray
    ) -> BatchScoreResult:
        """Score a batch of windows, each with its detected context.

        *contexts* may be coarse-context labels or an already-encoded
        ``int8`` code array (see :func:`encode_contexts`).  Rows sharing a
        resolved model are grouped in one vectorized pass — no per-row
        Python — and scored in a single call per model; results are
        scattered back into window order.
        """
        features, codes = _validate_batch(features, contexts)
        n_windows = len(features)
        scores = np.empty(n_windows)
        accepted = np.empty(n_windows, dtype=bool)
        if n_windows == 0:
            return BatchScoreResult(
                scores=scores,
                accepted=accepted,
                model_contexts=tuple(),
                model_version=self.bundle.version,
            )
        # Resolve every possible context code to its model once (a handful
        # of lookups), then bucket window indices by resolved model with
        # pure array operations: several detected contexts may fall back
        # onto the same model, so codes first map onto model *slots*.
        models = self.model_by_code()
        slot_by_id: dict[int, int] = {}
        distinct: list[ScorableModel] = []
        slot_by_code = np.empty(len(models), dtype=np.intp)
        for code, model in enumerate(models):
            slot = slot_by_id.get(id(model))
            if slot is None:
                slot = slot_by_id[id(model)] = len(distinct)
                distinct.append(model)
            slot_by_code[code] = slot
        row_slots = slot_by_code[codes]
        for slot in np.unique(row_slots):
            indices = np.flatnonzero(row_slots == slot)
            model = distinct[slot]
            scores[indices], accepted[indices] = model.batch_decisions(
                features[indices]
            )
        context_by_slot = np.fromiter(
            (model.context for model in distinct), dtype=object, count=len(distinct)
        )
        return BatchScoreResult(
            scores=scores,
            accepted=accepted,
            model_contexts=tuple(context_by_slot[row_slots]),
            model_version=self.bundle.version,
        )

    def confidence_scores(
        self, features: np.ndarray, contexts: Sequence[CoarseContext] | np.ndarray
    ) -> np.ndarray:
        """Confidence score per window (the retraining monitor's input)."""
        return self.score(features, contexts).scores


# ---------------------------------------------------------------------- #
# coalesced multi-request scoring (the micro-batching frontend's engine)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FusedStacks:
    """The stacked affine parameters of one fused model set.

    One row per fused model, in the canonical (id-sorted) order of the
    ``rules`` tuple.  Holding the rules themselves keeps them alive for the
    lifetime of the entry, so an ``id``-based cache key can never be reused
    by a different rule object while this entry exists.

    Attributes
    ----------
    rules:
        The fused decision rules, id-sorted; the cache key derives from it.
    mean, scale, x_offset, coef:
        ``(n_models, n_features)`` parameter matrices (standardisation,
        centring and projection coefficients, stacked row-wise).
    y_offset, sign:
        ``(n_models,)`` projection intercepts and score sign adjustments.
    accept_nonneg:
        ``(n_models,)`` boolean accept-threshold orientations.
    """

    rules: tuple[LinearDecisionRule, ...]
    mean: np.ndarray
    scale: np.ndarray
    x_offset: np.ndarray
    coef: np.ndarray
    y_offset: np.ndarray
    sign: np.ndarray
    accept_nonneg: np.ndarray

    @classmethod
    def build(cls, rules: Sequence[LinearDecisionRule]) -> "FusedStacks":
        """Stack the parameters of *rules* (assumed already id-sorted)."""
        return cls(
            rules=tuple(rules),
            mean=np.stack([rule.mean for rule in rules]),
            scale=np.stack([rule.scale for rule in rules]),
            x_offset=np.stack([rule.x_offset for rule in rules]),
            coef=np.stack([rule.coef for rule in rules]),
            y_offset=np.asarray([rule.y_offset for rule in rules]),
            sign=np.asarray([rule.sign for rule in rules]),
            accept_nonneg=np.asarray(
                [rule.accept_on_nonnegative for rule in rules], dtype=bool
            ),
        )


class FusedStackCache:
    """LRU cache of :class:`FusedStacks` keyed by the serving model set.

    Rebuilding the stacked parameter matrices on every flush is the dominant
    cost of a coalesced pass once the einsum itself is cheap (hundreds of
    small per-rule stacking operations per flush).  A serving frontend that
    flushes the same fleet repeatedly reuses one entry for as long as the
    served models do not change: the stacks cover every fused model of the
    flush's :class:`ModelTable` (not just the ones this flush's detected
    contexts happened to select), so per-flush context variation still hits.

    The key is the tuple of the rules' ``id``\\ s in canonical (sorted)
    order — the *serving model-set fingerprint*.  Rules are immutable and
    memoised per trained model, so a retrain, rollback or ``use_context``
    flip yields different rule objects and therefore a different key;
    each entry also holds strong references to its rules, so a key can
    never be recycled by the allocator while its entry is alive.  Explicit
    invalidation (:meth:`clear`) is therefore a memory-hygiene hook — the
    service frontend clears the cache whenever the model registry's
    generation moves — not a correctness requirement.

    Thread-safe: lookups, inserts, eviction and :meth:`clear` serialize on
    an internal lock, because the threaded HTTP transport can drive
    concurrent coalesced flushes for disjoint user sets through one shared
    cache.  (Entry *construction* happens outside the lock; two racing
    misses may both build, and the last insert wins — wasted work, never a
    wrong result, since entries for one key are interchangeable.)

    Parameters
    ----------
    max_entries:
        Bound on distinct model sets kept (least recently used evicted).

    Raises
    ------
    ValueError
        If ``max_entries`` is not positive.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple[int, ...], FusedStacks]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stacks_for(self, rules: Sequence[LinearDecisionRule]) -> FusedStacks:
        """The stacked parameters of *rules* (assumed id-sorted), cached.

        Returns
        -------
        FusedStacks
            A cached entry when this exact rule set was stacked before,
            otherwise a freshly built (and now cached) one.
        """
        key = tuple(map(id, rules))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
        entry = FusedStacks.build(rules)
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        """Drop every cached entry (hit/miss statistics are kept)."""
        with self._lock:
            self._entries.clear()


def _decision_rule(model: ScorableModel) -> LinearDecisionRule | None:
    return model.decision_rule() if hasattr(model, "decision_rule") else None


def _slot_columns(models: Sequence[ScorableModel]) -> tuple[np.ndarray, np.ndarray]:
    """Context code and affine-rule width (``0`` = none) of each model."""
    rules = [_decision_rule(model) for model in models]
    return (
        np.fromiter(
            (CONTEXT_CODES[model.context] for model in models),
            dtype=np.int8,
            count=len(models),
        ),
        np.fromiter(
            (0 if rule is None else rule.coef.shape[-1] for rule in rules),
            dtype=np.intp,
            count=len(rules),
        ),
    )


def _row_columns(
    scorers: Sequence[BatchScorer], slot_of: Mapping[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Slot per context code and bundle version of each scorer."""
    lut = np.empty((len(scorers), len(CONTEXT_BY_CODE)), dtype=np.intp)
    for row, scorer in enumerate(scorers):
        lut[row] = [slot_of[id(model)] for model in scorer.model_by_code()]
    versions = np.fromiter(
        (scorer.bundle.version for scorer in scorers),
        dtype=np.int64,
        count=len(scorers),
    )
    return lut, versions


@dataclass(frozen=True, eq=False)
class ModelTable:
    """The model-slot lookup table a coalesced pass resolves rows through.

    Each row stands for one served :class:`BatchScorer` (one bundle version
    under one ``use_context`` mode); ``lut[row, code]`` is the slot of the
    model scoring that row's windows detected under context *code*, with
    fall-backs and single-model mode already applied.  Slots
    ``0 .. len(rules) - 1`` are the fusible models in the id-sorted order
    of :attr:`rules` — exactly their row in the :class:`FusedStacks` built
    from those rules — so a window's slot is also its gather index into
    the stacked parameters.  Every other slot scores through its model's
    own :meth:`~ScorableModel.batch_decisions`.

    Immutable once built: the serving frontend keeps one per registry
    generation, so a warm flush resolves its whole batch with array
    gathers alone.  ``eq=False`` for the usual array-field reason.

    Attributes
    ----------
    lut:
        ``(n_rows, len(CONTEXT_BY_CODE))`` model slot per row and code.
    versions:
        Bundle version per row.
    models:
        The model of each slot.
    code_by_slot:
        ``int8`` context code of each slot's model.
    rule_widths:
        Feature width of each slot's affine rule (``0`` when it has none).
    rules:
        The fusible slots' decision rules, id-sorted (the stack-cache key).
    """

    lut: np.ndarray
    versions: np.ndarray
    models: tuple[ScorableModel, ...]
    code_by_slot: np.ndarray
    rule_widths: np.ndarray
    rules: tuple[LinearDecisionRule, ...]

    @classmethod
    def build(cls, scorers: Sequence[BatchScorer], width: int) -> "ModelTable":
        """A table with one row per scorer, in order.

        Models whose affine rule has *width* columns are fused.  Every
        other model (no rule, another width) becomes a fallback slot.
        """
        distinct: dict[int, ScorableModel] = {}
        for scorer in scorers:
            for model in scorer.model_by_code():
                distinct.setdefault(id(model), model)
        rule_of = {key: _decision_rule(model) for key, model in distinct.items()}
        fused = {
            id(rule): key
            for key, rule in rule_of.items()
            if rule is not None and rule.coef.shape[-1] == width
        }
        keys = [fused[rule_id] for rule_id in sorted(fused)]
        rules = tuple(rule_of[key] for key in keys)
        fused_keys = set(keys)
        keys += [key for key in distinct if key not in fused_keys]
        models = tuple(distinct[key] for key in keys)
        lut, versions = _row_columns(
            scorers, {key: slot for slot, key in enumerate(keys)}
        )
        return cls(lut, versions, models, *_slot_columns(models), rules)

    def with_fallback_rows(self, scorers: Sequence[BatchScorer]) -> "ModelTable":
        """This table plus one appended row per scorer.

        Models the table already holds keep their slots; new ones become
        fallback slots, so the fused rules (and their cache key) stay as
        they are.
        """
        slot_of = {id(model): slot for slot, model in enumerate(self.models)}
        added: list[ScorableModel] = []
        for scorer in scorers:
            for model in scorer.model_by_code():
                if id(model) not in slot_of:
                    slot_of[id(model)] = len(self.models) + len(added)
                    added.append(model)
        lut, versions = _row_columns(scorers, slot_of)
        codes, widths = _slot_columns(added)
        return ModelTable(
            lut=np.concatenate([self.lut, lut]),
            versions=np.concatenate([self.versions, versions]),
            models=self.models + tuple(added),
            code_by_slot=np.concatenate([self.code_by_slot, codes]),
            rule_widths=np.concatenate([self.rule_widths, widths]),
            rules=self.rules,
        )


@dataclass(frozen=True, eq=False)
class StackedScoreResult:
    """Columnar outcome of one coalesced scoring pass (no per-request split).

    The zero-copy serving path keeps results in this block form end-to-end:
    the binary wire codec frames the ``scores`` / ``accepted`` /
    ``model_context_codes`` columns directly, so per-request Python objects
    are only ever built for callers that ask for them
    (:meth:`results`).

    ``eq=False``: holds NumPy arrays (see
    :class:`~repro.service.protocol.EnrollRequest` for the rationale).

    Attributes
    ----------
    scores, accepted:
        One entry per window of the combined batch, in submission order.
    model_context_codes:
        ``int8`` context code of the model that actually scored each window
        (after fall-back resolution) — decode with :func:`decode_contexts`.
    model_versions:
        One bundle version per *request*.
    offsets:
        Request slice boundaries: request *i* owns rows
        ``offsets[i]:offsets[i + 1]``.
    """

    scores: np.ndarray
    accepted: np.ndarray
    model_context_codes: np.ndarray
    model_versions: np.ndarray
    offsets: np.ndarray

    @property
    def n_requests(self) -> int:
        return len(self.model_versions)

    def __len__(self) -> int:
        return len(self.scores)

    def results(self) -> list[BatchScoreResult]:
        """Every request's slice, in request order."""
        return split_results(
            self.scores,
            self.accepted,
            self.model_context_codes,
            self.model_versions,
            self.offsets,
        )


def split_results(
    scores: np.ndarray,
    accepted: np.ndarray,
    model_context_codes: np.ndarray,
    model_versions: np.ndarray,
    offsets: np.ndarray,
) -> list[BatchScoreResult]:
    """Cut a columnar block into one :class:`BatchScoreResult` per request.

    Offsets and versions convert to Python once and the whole block's
    contexts decode in one gather; each request then only slices.
    """
    bounds = np.asarray(offsets).tolist()
    versions = np.asarray(model_versions).tolist()
    contexts = decode_contexts(model_context_codes)
    return [
        BatchScoreResult(
            scores=scores[start:stop],
            accepted=accepted[start:stop],
            model_contexts=contexts[start:stop],
            model_version=version,
        )
        for start, stop, version in zip(bounds, bounds[1:], versions)
    ]


def score_stacked(
    table: ModelTable,
    rows: Sequence[int] | np.ndarray,
    stacked: np.ndarray,
    lengths: Sequence[int] | np.ndarray,
    codes: np.ndarray,
    stack_cache: FusedStackCache | None = None,
) -> StackedScoreResult:
    """Score an already-stacked fleet batch in one coalesced pass.

    The kernel both serving doors share: the caller hands one contiguous
    ``(total_windows, n_features)`` block plus per-request *lengths* —
    exactly the shape the binary wire codec decodes a batch frame into
    with :func:`np.frombuffer` views — and each request's row in a
    :class:`ModelTable`.  Every window then resolves to its model slot in
    two array gathers (repeat each request's table row over its windows,
    index the lookup table with (row, context code) pairs); no per-request
    or per-row Python runs.

    Parameters
    ----------
    table:
        The model table the requests resolve through.
    rows:
        Each request's row in *table*.
    stacked:
        The combined feature rows, request slices back to back.
    lengths:
        Windows per request; must sum to ``len(stacked)``.
    codes:
        Per-window ``int8`` context codes (already encoded; label input is
        accepted and encoded via :func:`encode_contexts`).
    stack_cache:
        Optional :class:`FusedStackCache` reused across flushes: one lookup
        per pass that fuses any window.

    Returns
    -------
    StackedScoreResult
        Columnar scores/decisions plus the request slice offsets.  Scores
        and decisions are bit-for-bit identical to scoring each request
        through its own scorer.

    Raises
    ------
    ValueError
        If the shapes disagree, a context code is out of range, or the
        feature width does not match a selected model.
    """
    stacked = canonicalize_rows(stacked)
    rows = np.asarray(rows, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    if len(rows) != len(lengths):
        raise ValueError(f"got {len(rows)} table rows for {len(lengths)} request lengths")
    if len(lengths) and int(lengths.min()) < 0:
        raise ValueError("request lengths must be non-negative")
    offsets = offsets_from_lengths(lengths)
    total = int(offsets[-1])
    if total != len(stacked):
        raise ValueError(
            f"request lengths sum to {total} but the stacked batch has "
            f"{len(stacked)} rows"
        )
    codes = encode_contexts(codes)
    if len(codes) != total:
        raise ValueError(
            f"got {total} stacked feature rows but {len(codes)} context codes"
        )
    model_versions = table.versions[rows]
    if total == 0:
        return StackedScoreResult(
            scores=np.empty(0),
            accepted=np.empty(0, dtype=bool),
            model_context_codes=np.empty(0, dtype=np.int8),
            model_versions=model_versions,
            offsets=offsets,
        )

    row_slots = table.lut[np.repeat(rows, lengths), codes]
    model_context_codes = table.code_by_slot[row_slots]
    width = stacked.shape[1]
    mismatched = (table.rule_widths != 0) & (table.rule_widths != width)
    if mismatched.any():
        used = np.unique(row_slots)
        wrong = used[mismatched[used]]
        if len(wrong):
            # The fallback path rejects this inside scaler.transform; the
            # fused gather must refuse too, or NumPy broadcasting (e.g.
            # width-1 rows against d-wide parameters) would silently score
            # — and possibly accept — malformed probes.
            model = table.models[wrong[0]]
            raise ValueError(
                f"feature rows have {width} columns but the model for "
                f"context {model.context.value!r} was trained on "
                f"{table.rule_widths[wrong[0]]} features"
            )

    scores = np.empty(total)
    accepted = np.empty(total, dtype=bool)
    n_fused = len(table.rules)
    if n_fused == len(table.models):
        row_index: np.ndarray | slice = slice(None)
        gather = row_slots
    else:
        # Fallback models (probability-vote forests, non-linear kernels,
        # rows appended for pinned versions): one vectorized
        # batch_decisions call per model, shared across requests.
        fused_rows = row_slots < n_fused
        fallback_rows = np.flatnonzero(~fused_rows)
        for slot, group in _rows_by_slot(row_slots[fallback_rows]):
            picked = fallback_rows[group]
            scores[picked], accepted[picked] = table.models[slot].batch_decisions(
                stacked[picked]
            )
        row_index = np.flatnonzero(fused_rows)
        gather = row_slots[row_index]

    if len(gather):
        # The table's whole fused set, not just this flush's used subset:
        # the cache key then survives per-flush variation in which
        # contexts the windows resolved to.
        stacks = (
            stack_cache.stacks_for(table.rules)
            if stack_cache is not None
            else FusedStacks.build(table.rules)
        )
        # One parameter row per model, gathered out to one row per window:
        # the whole fleet batch then reduces in a single einsum.  Each
        # elementwise operation matches the per-model path exactly
        # (standardise, centre, project, sign-adjust), so the fused scores
        # are bit-for-bit identical.
        mean = stacks.mean[gather]
        scale = stacks.scale[gather]
        x_offset = stacks.x_offset[gather]
        coef = stacks.coef[gather]
        centred = (stacked[row_index] - mean) / scale - x_offset
        raw = np.einsum("ij,ij->i", centred, coef) + stacks.y_offset[gather]
        scores[row_index] = stacks.sign[gather] * raw
        accepted[row_index] = np.where(stacks.accept_nonneg[gather], raw >= 0.0, raw < 0.0)

    return StackedScoreResult(
        scores=scores,
        accepted=accepted,
        model_context_codes=model_context_codes,
        model_versions=model_versions,
        offsets=offsets,
    )


def score_requests(
    scorers: Sequence[BatchScorer],
    features_list: Sequence[np.ndarray],
    contexts_list: Sequence[Sequence[CoarseContext] | np.ndarray],
    stack_cache: FusedStackCache | None = None,
) -> list[BatchScoreResult]:
    """Score many concurrent authenticate requests in one coalesced pass.

    ``scorers[i]`` scores request *i*'s ``(features_list[i],
    contexts_list[i])`` windows; the same :class:`BatchScorer` object may
    appear many times (several requests for one user's served version).
    Context entries may be label sequences or already-encoded ``int8`` code
    arrays (:func:`encode_contexts`); the serving path passes codes, so
    resolving every window to its model is a pure array gather — no per-row
    Python anywhere.  The per-request inputs are stacked into one fleet
    batch and scored by :func:`score_stacked` (callers that already hold a
    contiguous block — the binary wire codec — call it directly and skip
    the copy).

    Every row in the combined batch whose resolved model exposes a
    :class:`~repro.ml.base.LinearDecisionRule` — the paper's kernel-ridge
    configuration, and every other classifier whose prediction is a
    threshold on an affine projection — is scored in a *single* fused
    gather-and-einsum over the entire fleet batch, regardless of how many
    users and model versions are involved.  Rows whose models cannot be
    fused (e.g. probability-vote forests, non-linear kernels) fall back to
    one vectorized :meth:`~ScorableModel.batch_decisions` call per model,
    still shared across requests.

    Scores and decisions are bit-for-bit identical to calling
    ``scorers[i].score(...)`` per request: the fused pass performs exactly
    the same elementwise standardisation, centering and per-row einsum
    reduction the per-model path performs.

    Parameters
    ----------
    scorers, features_list, contexts_list:
        One entry per concurrent request (equal lengths required).
    stack_cache:
        Optional :class:`FusedStackCache`.  When given, the stacked
        parameter matrices of the fused model set are reused across calls
        instead of being rebuilt on every flush; results are identical
        either way because the cached stacks are built from the very same
        immutable rules.

    Returns
    -------
    list[BatchScoreResult]
        One result per request, in request order.

    Raises
    ------
    ValueError
        If the three sequences disagree in length, a request's features and
        contexts disagree in length, or a request's feature width does not
        match its selected model.
    """
    if not (len(scorers) == len(features_list) == len(contexts_list)):
        raise ValueError(
            f"got {len(scorers)} scorers for {len(features_list)} feature "
            f"batches and {len(contexts_list)} context batches"
        )
    n_requests = len(scorers)
    batches: list[tuple[np.ndarray, np.ndarray]] = []
    for index in range(n_requests):
        try:
            batches.append(_validate_batch(features_list[index], contexts_list[index]))
        except ValueError as error:
            raise ValueError(f"request {index}: {error}") from None
    widths = {features.shape[1] for features, _ in batches if len(features)}
    if len(widths) > 1:
        # Mixed feature schemas cannot share one stacked batch; score each
        # request through its own scorer (identical results, just no fusion).
        return [scorers[index].score(*batches[index]) for index in range(n_requests)]

    lengths = np.fromiter(
        (len(features) for features, _ in batches), dtype=np.intp, count=n_requests
    )
    if not int(lengths.sum()):
        return [
            BatchScoreResult(
                scores=np.empty(0),
                accepted=np.empty(0, dtype=bool),
                model_contexts=tuple(),
                model_version=scorers[index].bundle.version,
            )
            for index in range(n_requests)
        ]
    stacked = np.vstack([features for features, _ in batches if len(features)])
    codes = np.concatenate([codes for _, codes in batches])
    row_of: dict[int, int] = {}
    distinct: list[BatchScorer] = []
    for scorer in scorers:
        if id(scorer) not in row_of:
            row_of[id(scorer)] = len(distinct)
            distinct.append(scorer)
    table = ModelTable.build(distinct, width=stacked.shape[1])
    rows = np.fromiter(
        (row_of[id(scorer)] for scorer in scorers), dtype=np.intp, count=n_requests
    )
    return score_stacked(table, rows, stacked, lengths, codes, stack_cache).results()


def score_fleet(
    scorers: dict[str, BatchScorer],
    requests: Sequence[tuple[str, np.ndarray, Sequence[CoarseContext]]],
) -> dict[str, BatchScoreResult]:
    """Score a batch of per-user requests against their respective models.

    Parameters
    ----------
    scorers:
        One :class:`BatchScorer` per user id.
    requests:
        ``(user_id, features, contexts)`` triples; multiple requests for the
        same user are concatenated and scored in one pass.

    Returns
    -------
    Mapping from user id to that user's combined batch result.
    """
    grouped_rows: dict[str, list[np.ndarray]] = {}
    grouped_codes: dict[str, list[np.ndarray]] = {}
    for index, (user_id, features, contexts) in enumerate(requests):
        if user_id not in scorers:
            raise KeyError(f"no scorer available for user {user_id!r}")
        # Validate per request: mismatches that cancel out across requests
        # for the same user would otherwise silently score windows under
        # the wrong contexts.
        try:
            rows, codes = _validate_batch(features, contexts)
        except ValueError as error:
            raise ValueError(
                f"request {index} for user {user_id!r}: {error}"
            ) from None
        grouped_rows.setdefault(user_id, []).append(rows)
        grouped_codes.setdefault(user_id, []).append(codes)
    return {
        user_id: scorers[user_id].score(
            np.vstack(grouped_rows[user_id]),
            np.concatenate(grouped_codes[user_id]),
        )
        for user_id in grouped_rows
    }
