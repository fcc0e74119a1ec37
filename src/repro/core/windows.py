"""Sliding-window extraction under the three normalization regimes.

Every search method in the library (sweepline, KV-Index, iSAX, TS-Index)
consumes windows through a single abstraction, :class:`WindowSource`, so
that all of them agree bit-for-bit on what "the subsequence starting at
position p" means under a given regime. The raw window matrix is a
zero-copy stride-tricks view; ``PER_WINDOW`` scaling is applied lazily
from precomputed rolling statistics.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .._util import (
    FLOAT_DTYPE,
    as_position_array,
    check_window_length,
)
from ..exceptions import InvalidParameterError
from .normalization import (
    Normalization,
    prepare_series,
    rolling_mean,
    rolling_std,
)
from .series import TimeSeries


class WindowSource:
    """All ``length``-sized windows of a series under one regime.

    Parameters
    ----------
    series:
        A :class:`~repro.core.series.TimeSeries` or any 1-D sequence.
    length:
        Window (subsequence) length ``l``.
    normalization:
        One of :class:`~repro.core.normalization.Normalization` or its
        string values ``"none"``, ``"global"``, ``"per_window"``.

    Notes
    -----
    Under ``GLOBAL`` the series is z-normalized once and windows are raw
    slices of the normalized buffer. Under ``PER_WINDOW`` each extracted
    window ``W_p`` is returned as ``(W_p - mean_p) / std_p`` using rolling
    statistics; near-constant windows use ``std = 1`` so they normalize to
    zero vectors (see :data:`~repro.core.normalization.STD_FLOOR`).
    """

    __slots__ = (
        "_series",
        "_values",
        "_length",
        "_normalization",
        "_view",
        "_means",
        "_stds",
    )

    def __init__(
        self,
        series: TimeSeries | npt.ArrayLike,
        length: int,
        normalization: Normalization | str = Normalization.GLOBAL,
    ):
        if not isinstance(series, TimeSeries):
            series = TimeSeries(series)
        normalization = Normalization.coerce(normalization)
        values = prepare_series(series.values, normalization)
        length = check_window_length(length, values.size, name="length")

        self._series = series
        self._values = values
        self._length = length
        self._normalization = normalization
        self._view = np.lib.stride_tricks.sliding_window_view(values, length)
        if normalization is Normalization.PER_WINDOW:
            self._means = rolling_mean(values, length)
            self._stds = rolling_std(values, length)
        else:
            self._means = None
            self._stds = None

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def series(self) -> TimeSeries:
        """The original (pre-normalization) series."""
        return self._series

    @property
    def values(self) -> np.ndarray:
        """The buffer windows slide over (normalized under ``GLOBAL``)."""
        return self._values

    @property
    def length(self) -> int:
        """Window length ``l``."""
        return self._length

    @property
    def normalization(self) -> Normalization:
        """The active regime."""
        return self._normalization

    @property
    def count(self) -> int:
        """Number of windows, ``|T| - l + 1``."""
        return self._view.shape[0]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"WindowSource(count={self.count}, length={self._length}, "
            f"normalization={self._normalization.value!r})"
        )

    # ------------------------------------------------------------------
    # Window access
    # ------------------------------------------------------------------
    def window(self, position: int) -> np.ndarray:
        """The single window starting at ``position`` (0-based)."""
        if not 0 <= position < self.count:
            raise InvalidParameterError(
                f"position {position} outside [0, {self.count})"
            )
        raw = self._view[position]
        if self._normalization is not Normalization.PER_WINDOW:
            return raw
        return (raw - self._means[position]) / self._stds[position]

    def windows(self, positions: npt.ArrayLike) -> np.ndarray:
        """A ``(k, length)`` matrix of the windows at ``positions``.

        Always returns a fresh writable array (the raw view is shared).
        """
        positions = self._checked_positions(positions)
        block = np.array(self._view[positions], dtype=FLOAT_DTYPE)
        if self._normalization is Normalization.PER_WINDOW and positions.size:
            block -= self._means[positions, None]
            block /= self._stds[positions, None]
        return block

    def window_columns(
        self, positions: npt.ArrayLike, columns: npt.ArrayLike
    ) -> np.ndarray:
        """A fresh ``(k, c)`` matrix: the cells ``columns`` of the windows
        at ``positions``.

        Byte-identical to ``windows(positions)[:, columns]``, but only
        the requested cells are read — as ``values[positions[:, None] +
        columns]`` from the prepared buffer — and ``PER_WINDOW`` scaling
        is applied to those cells alone. ``columns`` may also be a
        ``(k, c)`` array giving every window its own cells (then the
        result equals ``np.take_along_axis(windows(positions), columns,
        axis=1)``). This is the gather behind two-pass and blocked
        verification, which read a few columns of every candidate and
        the rest only for the survivors.
        """
        positions = self._checked_positions(positions)
        columns = np.asarray(columns, dtype=np.intp)
        if columns.size and (
            columns.min() < 0 or columns.max() >= self._length
        ):
            raise InvalidParameterError(
                f"columns must lie in [0, {self._length}); got range "
                f"[{columns.min()}, {columns.max()}]"
            )
        block = self._values[positions[:, None] + columns]
        if self._normalization is Normalization.PER_WINDOW and positions.size:
            block -= self._means[positions, None]
            block /= self._stds[positions, None]
        return block

    def _checked_positions(self, positions: npt.ArrayLike) -> np.ndarray:
        positions = as_position_array(positions)
        if positions.size and (
            positions.min() < 0 or positions.max() >= self.count
        ):
            raise InvalidParameterError(
                f"positions must lie in [0, {self.count}); got range "
                f"[{positions.min()}, {positions.max()}]"
            )
        return positions

    def window_block(self, start: int, stop: int) -> np.ndarray:
        """Windows for the contiguous position range ``[start, stop)``.

        Under ``NONE``/``GLOBAL`` this is a zero-copy view; under
        ``PER_WINDOW`` a normalized copy.
        """
        if not 0 <= start <= stop <= self.count:
            raise InvalidParameterError(
                f"invalid block [{start}, {stop}) for {self.count} windows"
            )
        block = self._view[start:stop]
        if self._normalization is not Normalization.PER_WINDOW:
            return block
        block = np.array(block, dtype=FLOAT_DTYPE)
        block -= self._means[start:stop, None]
        block /= self._stds[start:stop, None]
        return block

    # ------------------------------------------------------------------
    # Sharding support (repro.engine)
    # ------------------------------------------------------------------
    def shard(self, start: int, stop: int) -> "WindowSource":
        """A window source over the position range ``[start, stop)``.

        The shard covers the value chunk ``[start, stop + length - 1)``,
        i.e. consecutive shards overlap by ``length - 1`` values so no
        window is lost at a shard boundary. Window ``p`` of the shard is
        **bitwise identical** to window ``start + p`` of this source:

        * the shard aliases this source's *prepared* value buffer, so
          under ``GLOBAL`` it reuses the whole-series z-normalization
          instead of re-normalizing the chunk with chunk-local moments;
        * under ``PER_WINDOW`` the shard aliases slices of this source's
          rolling statistics, so window scaling carries over exactly
          (recomputing them over the chunk would perturb the cumulative
          sums by float rounding).

        This exactness is what lets :class:`repro.engine.ShardedTSIndex`
        return byte-identical results to a monolithic index. Everything
        is a zero-copy NumPy view; no values are duplicated.
        """
        if not (
            isinstance(start, (int, np.integer))
            and isinstance(stop, (int, np.integer))
        ):
            raise InvalidParameterError(
                f"shard bounds must be integers, got [{start!r}, {stop!r})"
            )
        if not 0 <= start < stop <= self.count:
            raise InvalidParameterError(
                f"invalid shard [{start}, {stop}) for {self.count} windows"
            )
        shard = object.__new__(WindowSource)
        hi = int(stop) + self._length - 1
        name = self._series.name
        shard._series = TimeSeries(
            self._series.values[start:hi],
            name=f"{name}[{start}:{hi}]" if name else f"[{start}:{hi}]",
            copy=False,
        )
        shard._values = self._values[start:hi]
        shard._length = self._length
        shard._normalization = self._normalization
        shard._view = self._view[start:stop]
        shard._means = None if self._means is None else self._means[start:stop]
        shard._stds = None if self._stds is None else self._stds[start:stop]
        return shard

    def detach(self, start: int, stop: int) -> "WindowSource":
        """Like :meth:`shard`, but **self-contained**: the value chunk
        and the per-window statistics slices are copied, so the result
        owns its memory and stays valid (and byte-identical) after this
        source's buffers are replaced or garbage collected.

        This is how :mod:`repro.live` seals delta windows into immutable
        segments: the live plane rebuilds its monolithic source on every
        append, and a sealed segment must not pin the whole historical
        buffer alive just to serve its own span. Copying preserves
        bitwise equality because the library's rolling statistics are
        prefix-stable under appends (see
        :func:`~repro.core.normalization.rolling_std`).
        """
        shard = self.shard(start, stop)
        name = self._series.name
        return assemble_source(
            np.array(shard._values),
            self._length,
            self._normalization,
            means=None if shard._means is None else np.array(shard._means),
            stds=None if shard._stds is None else np.array(shard._stds),
            name=f"{name}[{start}:{int(stop) + self._length - 1}]"
            if name
            else f"[{start}:{int(stop) + self._length - 1}]",
        )

    # ------------------------------------------------------------------
    # Aggregates used by the indices
    # ------------------------------------------------------------------
    def means(self) -> np.ndarray:
        """Mean value of every window (KV-Index keys, Section 4.1).

        Under ``PER_WINDOW`` every mean is exactly zero by construction;
        the zeros are returned so callers can detect the degenerate case.
        """
        if self._normalization is Normalization.PER_WINDOW:
            return np.zeros(self.count, dtype=FLOAT_DTYPE)
        return rolling_mean(self._values, self._length)

    def prepare_query(self, query: npt.ArrayLike) -> np.ndarray:
        """Normalize an external query the same way indexed windows are.

        ``NONE``/``GLOBAL``: returned as-is (under ``GLOBAL`` the caller
        is expected to pass a query expressed in the normalized value
        domain — e.g. one extracted from this source). ``PER_WINDOW``:
        z-normalized independently, mirroring the indexed windows.
        """
        from .._util import as_float_array  # local import avoids cycle noise
        from .normalization import znormalize

        query = as_float_array(query, name="query")
        if query.size != self._length:
            raise InvalidParameterError(
                f"query length {query.size} != window length {self._length}"
            )
        if self._normalization is Normalization.PER_WINDOW:
            # Exact idempotence: re-normalizing an already-normalized
            # query would perturb it by float noise and break exact
            # (epsilon = 0) matches. If the query is already standard,
            # normalization is a no-op up to that noise — skip it.
            mean = float(query.mean())
            std = float(query.std())
            if abs(mean) < 1e-12 and abs(std - 1.0) < 1e-12:
                return query
            return znormalize(query)
        return query


def assemble_source(
    values: np.ndarray,
    length: int,
    normalization: Normalization | str,
    *,
    means: np.ndarray | None = None,
    stds: np.ndarray | None = None,
    name: str = "",
) -> WindowSource:
    """Assemble a :class:`WindowSource` from an owned value buffer plus
    **precomputed** per-window statistics.

    Unlike the constructor, the rolling statistics are *not* recomputed
    from ``values`` — the caller supplies the exact arrays its windows
    must be scaled by. This is the bitwise-exactness carrier used by
    :meth:`WindowSource.detach` and by :mod:`repro.live`'s segment
    compaction: statistics computed over the full series are carried
    into a chunk-sized source, so chunk windows remain byte-identical to
    the monolithic ones (recomputing over the chunk would perturb the
    cumulative sums by float rounding). Under ``NONE``/``GLOBAL`` pass
    ``means=stds=None``; ``values`` must already be in the prepared
    domain (raw, or globally normalized by the caller).
    """
    from .series import TimeSeries

    normalization = Normalization.coerce(normalization)
    values = np.ascontiguousarray(values, dtype=FLOAT_DTYPE)
    length = check_window_length(length, values.size, name="length")
    count = values.size - length + 1
    if normalization is Normalization.PER_WINDOW:
        if means is None or stds is None:
            raise InvalidParameterError(
                "per-window sources need precomputed means and stds"
            )
        if means.shape != (count,) or stds.shape != (count,):
            raise InvalidParameterError(
                f"window statistics must have shape ({count},), got "
                f"{means.shape} and {stds.shape}"
            )
    source = object.__new__(WindowSource)
    source._series = TimeSeries(values, name=name, copy=False)
    source._values = values
    source._length = length
    source._normalization = normalization
    source._view = np.lib.stride_tricks.sliding_window_view(values, length)
    if normalization is Normalization.PER_WINDOW:
        source._means = means
        source._stds = stds
    else:
        source._means = None
        source._stds = None
    return source
