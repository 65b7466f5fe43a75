"""Shared-memory relation store — publish once, attach zero-copy.

Relations published here live in :mod:`multiprocessing.shared_memory`
segments, so another process can *attach* to their columnar buffers
instead of receiving pickled factors.  The query service publishes
nothing; the layer ledger's serving probes time a publish and an
attach of each registered session's query.  One factor publishes as
one segment holding its ``int64`` code arrays and its annotation array
back to back; the small parts — schema, dictionaries, domains — travel
in a picklable manifest.
Attaching rebuilds a :class:`~repro.semiring.columnar.ColumnarFactor`
whose arrays *view* the segment (zero copy); factors whose storage was
the dict backend, or whose semiring has no columnar profile, round-trip
through an exact decode / pickle fallback instead (order- and
value-preserving, so downstream execution is byte-identical either way).

Lifecycle is explicit: the creating process owns every segment and must
:meth:`SharedRelationStore.close` (close + unlink) when done; attachers
:meth:`AttachedRelations.close` their handles.  The module tracks every
segment the process created so tests can assert nothing leaks into
``/dev/shm`` after a suite (:func:`live_segment_names`).  Attach-side
handles are deliberately unregistered from the CPython resource tracker:
ownership stays with the creator, and the 3.11 tracker would otherwise
double-unlink (bpo-39959) and spam shutdown warnings for segments the
worker merely mapped.
"""

from __future__ import annotations

import pickle
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..faq import FAQQuery
from ..hypergraph import Hypergraph
from ..semiring import BUILTIN_SEMIRINGS, Factor, get_semiring
from ..semiring.backend import backend_of, supports_columnar
from ..semiring.columnar import ColumnarFactor, Dictionary

#: Manifest layout version — bump on any incompatible payload change.
STORE_VERSION = 1


class ServeError(RuntimeError):
    """A structured serving failure — every degraded path raises this.

    Attributes:
        code: Machine-readable failure class:

            * ``"rejected"`` — admission control refused the query (the
              predicted cost exceeds the configured budget; ``detail``
              carries the predicted metrics and the budget), or the
              cost model could not price it at registration
              (``detail["cost_model"]`` holds the error).
            * ``"overloaded"`` — the service queue is full.
            * ``"store-detached"`` — :func:`attach_query` found a
              segment torn down / unlinked.
            * ``"execution-failed"`` — the online solve itself raised
              (``detail["session_id"]`` names the session).
            * ``"shutdown"`` — the service is closing.
        detail: Optional structured context (JSON-able where possible).
    """

    def __init__(
        self, code: str, message: str, detail: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.detail = detail or {}

    def to_dict(self) -> Dict[str, Any]:
        """The structured form clients/benchmarks record."""
        return {"code": self.code, "message": str(self), "detail": self.detail}


# ---------------------------------------------------------------------------
# Segment bookkeeping
# ---------------------------------------------------------------------------

#: Segments this process *created* and has not yet unlinked, by name.
#: The leak-check tests assert this is empty (and /dev/shm clean) after
#: every store is closed.
_LIVE_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
_LIVE_LOCK = threading.RLock()


def live_segment_names() -> Tuple[str, ...]:
    """Names of shm segments this process created and still owns."""
    with _LIVE_LOCK:
        return tuple(sorted(_LIVE_SEGMENTS))


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    with _LIVE_LOCK:
        _LIVE_SEGMENTS[shm.name] = shm
    return shm


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    with _LIVE_LOCK:
        _LIVE_SEGMENTS.pop(shm.name, None)
    try:
        shm.close()
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


_ATTACH_LOCK = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without adopting ownership.

    Python 3.11's ``SharedMemory`` has no ``track=`` parameter: every
    attach registers with the resource tracker, which on fork shares one
    tracker set with the creator (so a later unregister strips the
    creator's entry) and on spawn gives the worker its own tracker
    (which then unlinks the creator's segment when the worker exits —
    bpo-39959).  Ownership here is strictly creator-side, so suppress
    the registration for the duration of the attach.

    Raises:
        ServeError: (``store-detached``) when the segment no longer
            exists — the store was closed/unlinked under the attacher.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise ServeError(
                "store-detached",
                f"shared-memory segment {name!r} has been unlinked",
                {"segment": name},
            ) from None
        finally:
            resource_tracker.register = original
    return shm


# ---------------------------------------------------------------------------
# Publishing
# ---------------------------------------------------------------------------


def _semiring_ref(semiring) -> Dict[str, Any]:
    """A manifest reference: by name for builtins, pickled otherwise."""
    if semiring.name in BUILTIN_SEMIRINGS:
        return {"builtin": semiring.name}
    return {"object": semiring}


def _semiring_deref(ref: Mapping[str, Any]):
    if "builtin" in ref:
        return get_semiring(ref["builtin"])
    return ref["object"]


def _dictionary_spec(d: list) -> Dict[str, Any]:
    """A dictionary's manifest entry, preserving array provenance.

    Interning's fast paths key off
    :attr:`~repro.semiring.columnar.Dictionary.array` being present (and
    its dtype), so the attach side must rebuild exactly what the encoder
    produced — otherwise an attached query would take other interning
    paths than the published one.
    """
    arr = getattr(d, "array", None)
    return {
        "values": list(d),
        "dtype": None if arr is None else arr.dtype.str,
    }


def _dictionary_from_spec(spec: Mapping[str, Any]) -> list:
    values = spec["values"]
    if spec["dtype"] is None:
        return list(values)
    arr = np.array(values, dtype=np.dtype(spec["dtype"]))
    return Dictionary(values, array=arr)


def _publish_columnar(cf: ColumnarFactor, backend: str) -> Tuple[Dict[str, Any], shared_memory.SharedMemory]:
    """One segment: code arrays then the value array, back to back."""
    arrays: List[np.ndarray] = [
        np.ascontiguousarray(c) for c in cf.codes
    ] + [np.ascontiguousarray(cf.values)]
    layout = []
    offset = 0
    for arr in arrays:
        layout.append(
            {"offset": offset, "dtype": arr.dtype.str, "shape": tuple(arr.shape)}
        )
        offset += arr.nbytes
    shm = _create_segment(offset)
    for arr, meta in zip(arrays, layout):
        if arr.nbytes:
            dst = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=meta["offset"]
            )
            dst[...] = arr
    entry = {
        "kind": "columnar",
        "segment": shm.name,
        "backend": backend,
        "schema": tuple(cf.schema),
        "factor_name": cf.name,
        "semiring": _semiring_ref(cf.semiring),
        "arrays": layout,
        "dictionaries": [_dictionary_spec(d) for d in cf.dictionaries],
        "rows": len(cf),
    }
    return entry, shm


def _publish_pickled(factor: Factor) -> Tuple[Dict[str, Any], shared_memory.SharedMemory]:
    # The semiring travels by reference, not by value: builtin semirings
    # hold lambdas (unpicklable), and identity matters — attached
    # factors must carry the *same* semiring object the originals do.
    blob = pickle.dumps(
        (tuple(factor.schema), list(factor.rows.items()), factor.name),
        pickle.HIGHEST_PROTOCOL,
    )
    shm = _create_segment(len(blob))
    shm.buf[: len(blob)] = blob
    return (
        {
            "kind": "pickled",
            "segment": shm.name,
            "backend": backend_of(factor),
            "schema": tuple(factor.schema),
            "factor_name": factor.name,
            "semiring": _semiring_ref(factor.semiring),
            "nbytes": len(blob),
            "rows": len(factor),
        },
        shm,
    )


def publish_factor(factor: Factor) -> Tuple[Dict[str, Any], shared_memory.SharedMemory]:
    """Publish one factor; returns ``(manifest entry, owned segment)``.

    Columnar-capable factors ship as raw arrays (zero-copy attach); the
    rest — exotic semirings, ``int64``-overflowing annotations — fall
    back to one pickled blob per factor (still shared, one copy total
    instead of one per task).
    """
    backend = backend_of(factor)
    if supports_columnar(factor.semiring):
        try:
            return _publish_columnar(ColumnarFactor.from_factor(factor), backend)
        except (ValueError, OverflowError, TypeError):
            pass
    return _publish_pickled(factor)


def _attach_factor(
    entry: Mapping[str, Any],
) -> Tuple[Factor, Optional[shared_memory.SharedMemory]]:
    """Rebuild one factor from its manifest entry.

    Returns ``(factor, segment)`` — ``segment`` is the live handle the
    factor's arrays view (``None`` when the factor was decoded/unpickled
    and the handle already closed).
    """
    shm = _attach_segment(entry["segment"])
    if entry["kind"] == "pickled":
        try:
            schema, pairs, name = pickle.loads(
                bytes(shm.buf[: entry["nbytes"]])
            )
        finally:
            shm.close()
        factor = Factor(
            schema, semiring=_semiring_deref(entry["semiring"]), name=name
        )
        # Assign rows directly (same move as ``to_dict_factor``): the
        # published pairs are already canonical and order matters.
        factor.rows = dict(pairs)
        return factor, None
    codes_and_values: List[np.ndarray] = []
    for meta in entry["arrays"]:
        codes_and_values.append(
            np.ndarray(
                meta["shape"],
                dtype=np.dtype(meta["dtype"]),
                buffer=shm.buf,
                offset=meta["offset"],
            )
        )
    dicts = [_dictionary_from_spec(s) for s in entry["dictionaries"]]
    cf = ColumnarFactor._from_arrays(
        entry["schema"],
        codes_and_values[:-1],
        dicts,
        codes_and_values[-1],
        _semiring_deref(entry["semiring"]),
        entry["factor_name"],
    )
    if entry["backend"] != "columnar":
        # The registered storage was dict-backed: decode (exact, order-
        # preserving) and drop the mapping — byte-identity demands the
        # attach side reproduce the original storage backend.
        factor = cf.to_dict_factor()
        shm.close()
        return factor, None
    return cf, shm


# ---------------------------------------------------------------------------
# Query-level publish/attach
# ---------------------------------------------------------------------------


def publish_query(
    store: "SharedRelationStore",
    key: str,
    query: FAQQuery,
) -> Dict[str, Any]:
    """Publish a whole query: relations into ``store``, metadata inline.

    The returned payload is small and picklable (segment names, schemas,
    dictionaries, domains) — ship it to another process once per key
    and :func:`attach_query` there.
    """
    relations = {
        name: store._adopt(publish_factor(factor))
        for name, factor in query.factors.items()
    }
    return {
        "version": STORE_VERSION,
        "key": key,
        "relations": relations,
        "query": {
            "edges": [(n, tuple(vs)) for n, vs in query.hypergraph.edges()],
            "domains": {v: tuple(dom) for v, dom in query.domains.items()},
            "free_vars": tuple(query.free_vars),
            "semiring": _semiring_ref(query.semiring),
            "aggregates": dict(query.aggregates),
            "bound_order": tuple(query.bound_order),
            "name": query.name,
            "backend": query.backend,
        },
    }


class AttachedQuery:
    """A query rebuilt from a manifest, plus the live segment handles.

    ``close()`` releases the attach-side handles; the columnar factors'
    arrays become invalid afterwards, so close only once the query is no
    longer in use.
    """

    def __init__(self, query: FAQQuery, segments) -> None:
        self.query = query
        self._segments = segments

    def close(self) -> None:
        for shm in self._segments:
            try:
                shm.close()
            except Exception:
                pass
        self._segments = []


def attach_query(payload: Mapping[str, Any]) -> AttachedQuery:
    """Rebuild the published query, attaching its relation segments.

    Raises:
        ServeError: (``store-detached``) if any segment is gone.
    """
    segments = []
    factors: Dict[str, Factor] = {}
    try:
        for name, entry in payload["relations"].items():
            factor, shm = _attach_factor(entry)
            factors[name] = factor
            if shm is not None:
                segments.append(shm)
    except ServeError:
        for shm in segments:
            shm.close()
        raise
    meta = payload["query"]
    query = FAQQuery(
        hypergraph=Hypergraph(dict(meta["edges"])),
        factors=factors,
        domains=dict(meta["domains"]),
        free_vars=meta["free_vars"],
        semiring=_semiring_deref(meta["semiring"]),
        aggregates=dict(meta["aggregates"]),
        bound_order=meta["bound_order"],
        name=meta["name"],
        backend=None,  # factors already carry the registered storage
    )
    # Restore the original backend *field* without re-converting (the
    # compiled solver's structural signature includes it).
    query.backend = meta["backend"]
    return AttachedQuery(query, segments)


# ---------------------------------------------------------------------------
# The creator-side store
# ---------------------------------------------------------------------------


class SharedRelationStore:
    """Creator-side registry of published relations.

    Owns every segment published into it and releases
    them all on :meth:`close` — which is idempotent and also runs via
    the context-manager protocol, so a crashed registration cannot leak
    ``/dev/shm`` entries past the ``with`` block.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._lock = threading.RLock()
        self._closed = False

    # -- bookkeeping ----------------------------------------------------
    def _adopt(self, published: Tuple[Dict[str, Any], shared_memory.SharedMemory]):
        entry, shm = published
        with self._lock:
            if self._closed:
                _release_segment(shm)
                raise ServeError(
                    "shutdown", "store is closed; cannot publish", {}
                )
            self._segments.append(shm)
        return entry

    @property
    def segment_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(shm.name for shm in self._segments)

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments, self._segments = self._segments, []
        for shm in segments:
            _release_segment(shm)

    # ``unlink`` as an explicit alias: the lifecycle tests exercise both
    # spellings, and close() already owns the unlink.
    unlink = close

    def __enter__(self) -> "SharedRelationStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort leak guard
        try:
            self.close()
        except Exception:
            pass
