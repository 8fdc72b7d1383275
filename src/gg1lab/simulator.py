"""Single-server queue simulation by the service-slot recursion.

One server, unbounded buffer, work-conserving and non-preemptive.
Service durations are drawn when service starts, in service order, so
under every discipline the k-th service starts at max(D_{k-1}, A_k)
and ends at D_k = max(D_{k-1}, A_k) + s_k (Lindley's recursion over
service slots).  The queue-length path follows from the arrival and
departure times alone and is identical across disciplines on a shared
seed; the discipline only decides which waiting customer fills each
slot: the oldest under FCFS, the newest under LCFS, a uniform pick
under random order.

The recursion is solved one busy period at a time.  A slot opens a
busy period iff its arrival comes after the previous departure, and
inside a period each departure is the previous one plus a service
time.  On long chunks the periods are guessed from the max-plus closed
form, summed side by side in NumPy with the recursion's own float
additions, and every guessed start is then checked exactly against the
departures; a chunk that passes the check holds the unique solution of
the recursion, so its bits are those of the scalar loop.  The loop
computes short chunks, and a long chunk from the first start the check
rejects.

The observation window is [warmup, warmup + horizon].  The system
starts empty at time zero; customers present when the window opens are
flagged ``pre_window``.  Every run drains: it continues past the
window end until each customer that arrived by then has departed (those
later events never extend the recorded path), or raises
``EventCapExceeded``.  ``restrict`` takes a shorter window of a run.

``_stream`` yields a run a chunk of slots at a time: the records of
the slots that serve window customers, and the window path's segments
up to the chunk's last departure.  Folds over it give the report, the
cycles and the inspections with no whole-run array; ``simulate`` is the
fold that keeps every chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import integer, real
from .artifacts import write_csv
from .distributions import DistributionSpec

DISCIPLINES = ("fcfs", "lcfs", "random-order")

_SAMPLE_BLOCK = 16384

# slots per chunk while the number of window arrivals is unknown or the
# drain is resolving the last window customers; doubles up to a block
_FIRST_CHUNK = 256

# chunks shorter than this keep the scalar slot loop: below it the
# busy-period kernel's fixed cost, about 100 us a chunk, outweighs its
# gain
_PARALLEL_MIN = 2048

# the events a run may process unless told otherwise
DEFAULT_EVENT_CAP = 100_000_000


class EventCapExceeded(RuntimeError):
    """Raised when a run would exceed its event budget.

    Carries partial progress so callers can report how far the run got.
    """

    def __init__(self, message: str, *, events: int, time_reached: float, queue_length: int):
        super().__init__(message)
        self.events = events
        self.time_reached = time_reached
        self.queue_length = queue_length


def _normalise_discipline(name: str) -> int:
    if not isinstance(name, str):
        raise ValueError(f"discipline must be a string, one of {DISCIPLINES}; got {name!r}")
    key = name.strip().lower()
    if key == "fcfs":
        return 0
    if key == "lcfs":
        return 1
    if key in ("random-order", "random"):
        return 2
    raise ValueError(f"unknown discipline {name!r}; expected one of {DISCIPLINES}")


@dataclass
class CustomerLedger:
    """Columnar per-customer ledger for every arrival up to the window end.

    Every row has its service start, duration and departure, those
    after the window end included.  Rows are in arrival order and
    include warmup-era customers; ``in_window_mask`` selects the
    population the window functionals are defined over.
    """

    arrival_time: np.ndarray
    service_start: np.ndarray
    service_duration: np.ndarray
    departure_time: np.ndarray
    pre_window: np.ndarray
    window: tuple[float, float]

    def __len__(self) -> int:
        return len(self.arrival_time)

    def in_window_mask(self) -> np.ndarray:
        """Customers counted by the window: present at the open, or arriving
        inside it."""
        t_initial, t_final = self.window
        arrivals = self.arrival_time
        return self.pre_window | ((arrivals >= t_initial) & (arrivals <= t_final))

    def restrict(self, t_final: float) -> "CustomerLedger":
        """The rows arriving at or before ``t_final``, as views, over the
        window [open, t_final]; see ``Trajectory.restrict``."""
        t_initial, end = self.window
        t_final = real("t_final", t_final, t_initial, end)
        cut = slice(_count_upto(self.arrival_time, t_final))
        return CustomerLedger(self.arrival_time[cut], self.service_start[cut],
                              self.service_duration[cut], self.departure_time[cut],
                              self.pre_window[cut], (t_initial, t_final))

    def to_csv(self, path) -> None:
        """Columns id, t_A, svc_start, t_mu, t_D, pre_window."""
        write_csv(path, ("id", "t_A", "svc_start", "t_mu", "t_D", "pre_window"),
                  (range(len(self)), self.arrival_time, self.service_start,
                   self.service_duration, self.departure_time, self.pre_window))


@dataclass
class Trajectory:
    """Piecewise-constant queue-length path over the observation window.

    ``initial_count`` is the queue length just before ``initial_time``;
    events carry the post-event level and lie in [initial_time,
    final_time] with strictly increasing timestamps (simultaneous
    arrival/departure pairs are coalesced into their net effect).
    Construction checks the event arrays against that, and that every
    level is nonnegative, and raises ValueError otherwise.
    """

    initial_time: float
    final_time: float
    initial_count: int
    times: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.times = times = np.asarray(self.times, dtype=float)
        self.counts = counts = np.asarray(self.counts, dtype=np.int64)
        if times.ndim != 1 or counts.shape != times.shape:
            raise ValueError("times and counts must be 1-D arrays of equal length")
        if len(times) and not (self.initial_time <= times[0] and times[-1] <= self.final_time
                               and np.all(times[1:] > times[:-1])):
            raise ValueError("event times must strictly increase within the window")
        if self.initial_count < 0 or (len(counts) and counts.min() < 0):
            raise ValueError("queue lengths must be nonnegative")

    @property
    def window_length(self) -> float:
        return self.final_time - self.initial_time

    def segments(self, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(boundaries, levels) of segments start to stop - 1 (all by
        default): levels[i] holds on [boundaries[i], boundaries[i+1]).
        Segment 0 holds the initial count from the window open, segment
        i >= 1 the level of event i - 1 up to the next event or the
        close.  Only the segments at the window ends copy the events."""
        n = len(self.times) + 1
        stop = n if stop is None else min(stop, n)
        lo = max(start - 1, 0)
        bounds = self.times[lo:stop]
        levels = self.counts[lo:stop - 1]
        if start == 0:
            levels = np.concatenate(([self.initial_count], levels))
        if start == 0 or stop == n:
            bounds = np.concatenate(([self.initial_time] if start == 0 else [], bounds,
                                     [self.final_time] if stop == n else []))
        return bounds, levels

    def restrict(self, t_final: float) -> "Trajectory":
        """The same run observed over [initial_time, t_final]: the events
        at or before ``t_final``, as views.  For a ``simulate`` run this
        path and the ledger's ``restrict`` are, bit for bit, those of a
        fresh ``simulate`` on the same seed whose window ends at
        ``t_final``, a real number in the window."""
        t_final = real("t_final", t_final, self.initial_time, self.final_time)
        cut = _count_upto(self.times, t_final)
        return Trajectory(self.initial_time, t_final, self.initial_count,
                          self.times[:cut], self.counts[:cut])

    def to_csv(self, path) -> None:
        """Columns tau, n: the window open and initial count, then each event."""
        write_csv(path, ("tau", "n"),
                  (np.concatenate(([float(self.initial_time)], self.times)),
                   np.concatenate(([int(self.initial_count)], self.counts))))



class _Chunk(NamedTuple):
    """A finished chunk of a run: its slots' records of window customers
    (customer None under FCFS: slot j serves customer j), and the window
    path's segments it completes, as ``Trajectory.segments`` gives them."""

    arrival: np.ndarray
    start: np.ndarray
    duration: np.ndarray
    departure: np.ndarray
    pre_window: np.ndarray
    customer: np.ndarray | None
    bounds: np.ndarray
    levels: np.ndarray


def simulate(
    arrival: DistributionSpec,
    service: DistributionSpec,
    discipline: str = "fcfs",
    warmup: float = 0.0,
    horizon: float = 1000.0,
    seed: int = 0,
    *,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> tuple[Trajectory, CustomerLedger]:
    """Simulate the queue and return its path and per-customer ledger.

    Every run drains: it continues past the window end until each
    customer that arrived by then has departed, or raises
    EventCapExceeded once it would process more than ``event_cap`` events.

    Args:
        arrival: inter-arrival duration distribution.
        service: service duration distribution (drawn at service start).
        discipline: "fcfs", "lcfs" or "random-order".
        warmup: window opens at this time; the system starts empty at 0.
        horizon: window length; the window is [warmup, warmup + horizon].
        seed: master seed, an integer >= 0; arrival, service and
            discipline draws come from independent substreams of it.
        event_cap: hard bound on processed events (arrivals plus
            departures, in time order), an integer >= 0.

    Ties between an arrival and a departure at the same instant are
    broken arrival-first.  The fold of ``_stream`` that keeps it all.
    """
    parts = dict(zip(_Chunk._fields, map(list, zip(*_stream(
        arrival, service, discipline, warmup, horizon, seed, event_cap=event_cap)))))
    t_initial, t_final = float(parts["bounds"][0][0]), float(parts["bounds"][-1][-1])
    times = np.concatenate([b[1:] for b in parts.pop("bounds")])[:-1]
    levels = np.concatenate(parts.pop("levels"))
    trajectory = Trajectory(t_initial, t_final, int(levels[0]), times, levels[1:])
    slot = slice(None)  # under FCFS the records are in customer order
    if parts["customer"][0] is not None:
        customer = np.concatenate(parts.pop("customer"))
        slot = np.empty_like(customer)
        slot[customer] = np.arange(len(customer))
    # a column at a time, each freed from its chunks before the next is placed
    ledger = CustomerLedger(*(np.concatenate(parts.pop(name))[slot] for name in _Chunk._fields[:5]),
                            window=(t_initial, t_final))
    return trajectory, ledger


def _stream(arrival, service, discipline="fcfs", warmup=0.0, horizon=1000.0, seed=0, *,
            event_cap=DEFAULT_EVENT_CAP):
    """The run of ``simulate``, a ``_Chunk`` of slots at a time, until
    every window customer has had a slot (the drain's under LCFS and
    random order).  A chunk of ``_PARALLEL_MIN`` slots or more is
    computed a busy period at a time (guessed starts, NumPy sums, an
    exact check of every start), a shorter one by the scalar loop, with
    the same bits.  Arrivals after the window end get no record.  A
    chunk's path events are those before its last departure, up to the
    window end (a tie waits whole for the next chunk); events before the
    window open only set the level.  Arrival epochs are kept from the
    oldest customer without a slot or off the path; the event cap is
    checked after every chunk, and arrivals are drawn only to it."""
    if not (isinstance(arrival, DistributionSpec) and isinstance(service, DistributionSpec)):
        raise ValueError(f"arrival and service must be DistributionSpecs: {arrival!r}, {service!r}")
    t_initial = float(real("warmup", warmup, 0))
    t_final = t_initial + real("horizon", horizon, 0, above=True)
    seed = integer("seed", seed)
    event_cap = integer("event_cap", event_cap)
    mode = _normalise_discipline(discipline)
    if not math.isfinite(t_final):
        raise ValueError(f"window end warmup + horizon must be finite, got {warmup} + {horizon}")

    arr_ss, svc_ss, disc_ss = np.random.SeedSequence(seed).spawn(3)
    arrivals = _Arrivals(arrival, np.random.default_rng(arr_ss))
    services = _Draws(service, np.random.default_rng(svc_ss))
    queue = None if mode == 0 else _Queue(mode, np.random.default_rng(disc_ss))

    recorded = 0  # window customers with a record
    last = 0  # slots up to the latest record's
    last_departure = t_final  # of the latest record
    k = 0  # slots computed
    dep = -math.inf  # departure of slot k - 1
    step = _FIRST_CHUNK
    on_path = 0  # arrivals on the path so far
    held = np.empty(0)  # record departures up to t_final not yet on the path
    level = 0  # queue length after the events on the path so far
    bound = t_initial  # where the next segment opens

    arrivals.ensure_count(1)
    n_window = arrivals.passed(t_final)  # arrivals up to t_final, once known
    while True:
        # unfinished, so all k slots and every arrival up to slot k - 1's
        # departure are processed; the events before the latest chunk
        # passed the check before it
        if arrivals.count_upto(dep) + k > event_cap:
            raise _cap_exceeded(event_cap, arrivals, k - len(d), d)
        arrivals.keep_from(min(k if queue is None else queue.oldest, on_path))
        if n_window is not None and k < n_window:
            hi = min(k + _SAMPLE_BLOCK, n_window)
        else:
            hi = k + step
            step = min(2 * step, _SAMPLE_BLOCK)

        arrivals.ensure_count(hi)
        a = arrivals.between(k, hi)
        s = services.take(hi - k)
        d = _departures(a, s, dep)
        # stopped short of d[-1], the stream holds more epochs than the cap
        # allows, all before d[-1]: a run that reaches the last of them
        # fails the cap checks, and one that ends before it reads no
        # arrival after it
        arrivals.ensure_past(d[-1], event_cap)
        if n_window is None:
            n_window = arrivals.passed(t_final)
        before = _previous_departures(dep, d)
        starts = np.maximum(before, a)
        window = arrivals.end if n_window is None else n_window  # window customers are below it
        if queue is None:  # slot j serves customer j
            mine = slice(0, min(hi, window) - k)
            customer, arrival_time = None, a[mine].copy()
            last = k + mine.stop
        else:
            who = queue.fill(k, a > before, arrivals.count_upto(starts))
            mine = np.flatnonzero(who < window)
            customer = who[mine]
            arrival_time = arrivals.at(customer)
            if mine.size:
                last = k + int(mine[-1]) + 1
        departure = d[mine]
        recorded += len(departure)
        last_departure = max([last_departure, *departure[-1:].tolist()])
        k = hi
        dep = float(d[-1])
        final = n_window is not None and recorded == n_window
        # the run ends at t_final or at the last window customer's departure
        if final and arrivals.count_upto(last_departure) + last > event_cap:
            raise _cap_exceeded(event_cap, arrivals, k - len(d), d)

        # the events up to ``limit``: every one up to t_final once the last
        # chunk is in, else those before this chunk's last departure
        limit = t_final if final else min(t_final, math.nextafter(dep, -math.inf))
        upto = int(arrivals.count_upto(limit))
        deps = np.concatenate((held, departure[: _count_upto(departure, t_final)]))
        n_dep = _count_upto(deps, limit)
        times, counts = _queue_path(arrivals.between(on_path, upto), deps[:n_dep])
        counts += level
        on_path, held = upto, deps[n_dep:]
        first = int(np.searchsorted(times, t_initial, side="left"))
        opening = int(counts[first - 1]) if first else level  # the level at ``bound``
        level = int(counts[-1]) if len(counts) else level
        times, counts = _canonical_path(times[first:], counts[first:], opening)
        yield _Chunk(arrival_time, starts[mine], s[mine], departure,
                     (arrival_time < t_initial) & (departure >= t_initial), customer,
                     np.concatenate(([bound], times, [t_final] if final else [])),
                     np.concatenate(([opening], counts))[: len(counts) + final])
        bound = float(times[-1]) if len(times) else bound
        if final:
            return


def _count_upto(sorted_times: np.ndarray, t: float) -> int:
    return int(np.searchsorted(sorted_times, t, side="right"))


def _previous_departures(dep: float, departures: np.ndarray) -> np.ndarray:
    """D_{k-1} for a run of slots, given the departure ``dep`` of the
    slot before the run; a slot starts at max(D_{k-1}, A_k)."""
    before = np.empty(len(departures))
    before[:1] = dep
    before[1:] = departures[:-1]
    return before


class _Column:
    """A numpy column grown by doubling; ``values`` is its filled part."""

    def __init__(self, dtype=float) -> None:
        self._buf = np.empty(_SAMPLE_BLOCK, dtype=dtype)
        self.size = 0

    @property
    def values(self) -> np.ndarray:
        return self._buf[: self.size]

    def extend(self, items) -> None:
        end = self.size + len(items)
        if end > len(self._buf):
            grown = np.empty(max(end, 2 * len(self._buf)), dtype=self._buf.dtype)
            grown[: self.size] = self.values
            self._buf = grown
        self._buf[self.size : end] = items
        self.size = end


class _Draws:
    """One sampling stream, drawn a block at a time and consumed in order."""

    def __init__(self, spec: DistributionSpec, rng: np.random.Generator) -> None:
        self._spec = spec
        self._rng = rng
        self._block = np.empty(0)
        self._used = 0

    def take(self, n: int) -> np.ndarray:
        parts = []
        while n > 0:
            if self._used == len(self._block):
                self._block = self._spec.sample(self._rng, _SAMPLE_BLOCK)
                self._used = 0
            m = min(n, len(self._block) - self._used)
            parts.append(self._block[self._used : self._used + m])
            self._used += m
            n -= m
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Arrivals:
    """Arrival epochs: the running sum of the inter-arrival draws.

    Each block of draws is accumulated sequentially from the last epoch
    before it, so every epoch is the float sum ``t + gap`` of the one
    before (``carry + np.cumsum(gaps)`` would round differently).
    Indices count every epoch drawn; those before ``base`` are
    forgotten, and the counts take them as passed.
    """

    def __init__(self, spec: DistributionSpec, rng: np.random.Generator) -> None:
        self._spec = spec
        self._rng = rng
        self._times = _Column()
        self.base = 0
        self.last = 0.0

    @property
    def end(self) -> int:
        """Index past the last epoch drawn."""
        return self.base + self._times.size

    def keep_from(self, i: int) -> None:
        """Forget the epochs before index ``i`` once they are half of those
        held or more (so each epoch moves O(1) times)."""
        if 2 * (i - self.base) >= self._times.size:
            kept = self._times.values[i - self.base :].copy()
            self._times.size, self.base = 0, i
            self._times.extend(kept)

    def _grow(self) -> None:
        gaps = self._spec.sample(self._rng, _SAMPLE_BLOCK)
        epochs = np.cumsum(np.concatenate(([self.last], gaps)))[1:]
        self._times.extend(epochs)
        self.last = float(epochs[-1])

    def ensure_count(self, n: int) -> None:
        while self.end < n:
            self._grow()

    def ensure_past(self, t: float, limit: int) -> None:
        """Draw until an epoch lies past ``t``, or until more than
        ``limit`` are drawn."""
        while self.last <= t and self.end <= limit:
            self._grow()

    def between(self, lo: int, hi: int) -> np.ndarray:
        return self._times.values[lo - self.base : hi - self.base]

    def at(self, indices: np.ndarray) -> np.ndarray:
        return self._times.values[indices - self.base]

    def passed(self, t: float) -> int | None:
        """Arrivals at or before ``t`` once the stream has passed it."""
        return int(self.count_upto(t)) if self.last > t else None

    def count_upto(self, t):
        """Arrivals at or before ``t`` (a float or an array)."""
        return self.base + np.searchsorted(self._times.values, t, side="right")


def _departures(arrivals: np.ndarray, services: np.ndarray, dep: float) -> np.ndarray:
    """D_k = max(D_{k-1}, A_k) + s_k over one chunk of slots, starting
    from the departure ``dep`` of the slot before the chunk: by the
    busy-period kernel from ``_PARALLEL_MIN`` slots on, below that by
    the scalar loop.  Both give the loop's bits."""
    if len(arrivals) < _PARALLEL_MIN:
        return np.array(_slot_departures(arrivals, services, dep))
    return _busy_period_departures(arrivals, services, dep, _guess_starts(arrivals, services, dep))


def _slot_departures(arrivals: np.ndarray, services: np.ndarray, dep: float) -> list[float]:
    """D_k = max(D_{k-1}, A_k) + s_k over a run of slots, starting from
    the departure ``dep`` of the slot before the run, one Python step
    per slot.  The one scalar path: chunks below ``_PARALLEL_MIN``, and
    the rest of a longer chunk from the first busy-period start that
    ``_busy_period_departures`` guessed wrong."""
    out = []
    append = out.append
    for a, s in zip(arrivals.tolist(), services.tolist()):
        if a > dep:
            dep = a
        dep += s
        append(dep)
    return out


def _guess_starts(arrivals: np.ndarray, services: np.ndarray, dep: float) -> np.ndarray:
    """The slots that open a busy period by the max-plus closed form
    D_k = S_k + max(dep, max_{j<=k} (A_j - S_{j-1})), S the running sum
    of the services (Baccelli, Cohen, Olsder & Quadrat 1992): slot k
    opens one iff A_k - S_{k-1} exceeds every earlier term.  The form
    rounds differently from the recursion, so this is only a guess."""
    x = arrivals - (np.cumsum(services) - services)
    return x > np.maximum.accumulate(np.concatenate(([dep], x[:-1])))


def _busy_period_departures(arrivals: np.ndarray, services: np.ndarray, dep: float,
                            starts: np.ndarray) -> np.ndarray:
    """The slot departures from a guess of the busy-period starts,
    checked exactly.

    Slot k opens a busy period iff A_k > D_{k-1} (``dep`` standing in
    for D_{-1}).  Departures summed over the guessed periods that agree
    with that test at every slot solve the recursion, whose solution is
    unique, so they are the loop's bits.  Up to the first slot that
    disagrees they are exact, so the scalar loop computes the rest of
    the chunk from there.
    """
    d = np.empty(len(arrivals))
    _period_sums(arrivals, services, dep, starts, d)
    wrong = np.flatnonzero((arrivals > _previous_departures(dep, d)) != starts)
    if wrong.size:
        lo = int(wrong[0])
        d[lo:] = _slot_departures(arrivals[lo:], services[lo:], float(d[lo - 1]) if lo else dep)
    return d


def _period_sums(arrivals: np.ndarray, services: np.ndarray, dep: float,
                 starts: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with the departures of the busy periods opening at
    ``starts``; a period runs up to the next start.

    A period opening at slot b departs at A_b + s_b, A_b + s_b + s_{b+1},
    ...: the loop's float additions in the loop's order.  Slot 0 when
    it opens no period continues from ``dep``.  The periods are sorted
    longest first, so step p adds the p-th service of every period
    longer than p in one NumPy operation.  One such step costs about as
    much as one ``np.cumsum`` over the rest of a period, so the steps
    stop at the p that minimises p plus the periods still longer than
    p, and those few long periods each finish by ``np.cumsum`` (which
    adds in sequence, as the loop does).
    """
    n = len(arrivals)
    first = np.flatnonzero(starts)
    base = arrivals[first]
    if not starts[0]:
        first = np.concatenate(([0], first))
        base = np.concatenate(([dep], base))
    lengths = np.empty_like(first)
    lengths[:-1] = first[1:] - first[:-1]
    lengths[-1] = n - first[-1]
    # a stable sort of small ints is a radix sort
    key = -lengths.astype(np.int16 if n < 1 << 15 else np.intp)
    order = np.argsort(key, kind="stable")
    first = first[order]
    cur = base[order] + services[first]
    out[first] = cur
    active = len(first) - np.cumsum(np.bincount(lengths))  # periods longer than p
    stop = 1 + int(np.argmin(active[1:] + np.arange(1, len(active))))
    for p, m in enumerate(active[1:stop].tolist(), 1):
        at = first[:m] + p
        cur = cur[:m] + services[at]
        out[at] = cur
    m = int(active[stop])
    for b, length in zip(first[:m].tolist(), lengths[order[:m]].tolist()):
        lo, hi = b + stop, b + length
        out[lo:hi] = services[lo:hi]
        np.cumsum(out[lo - 1 : hi], out=out[lo - 1 : hi])


class _Queue:
    """Waiting customers under LCFS or random order.

    The list keeps customers in the order they joined the queue.  LCFS
    serves the last entry; random order draws a uniform pick from the
    discipline stream (one draw per pick, in blocks of
    ``_SAMPLE_BLOCK``), moves the last entry into its place and shrinks
    the list.  Entries are customer indices, those arriving after the
    window included.
    """

    def __init__(self, mode: int, rng: np.random.Generator) -> None:
        self._lcfs = mode == 1
        self._rng = rng
        self._waiting: list[int] = []
        self._joined = 0  # customers that have arrived into the queue or service
        self._picks: list[float] = []
        self._pick_i = 0
        self.oldest = 0  # the oldest customer not yet given a slot

    def fill(self, first_slot: int, direct: np.ndarray, arrived: np.ndarray) -> np.ndarray:
        """The customer of each slot in a chunk.  ``oldest`` is looked for
        again only once it has a slot: amortised O(1) work a slot.

        ``direct[j]``: the slot's customer found the server idle (then it
        is customer ``first_slot + j`` and the queue is empty).
        ``arrived[j]``: customers arrived by the slot's start, arrivals
        at that instant included.
        """
        waiting = self._waiting
        joined = self._joined
        picks, pick_i = self._picks, self._pick_i
        owners = []
        for slot, (idle, upto) in enumerate(zip(direct.tolist(), arrived.tolist()), first_slot):
            if idle:
                joined = slot + 1
                owners.append(slot)
                continue
            if upto > joined:
                waiting.extend(range(joined, upto))
                joined = upto
            if self._lcfs:
                owners.append(waiting.pop())
                continue
            if pick_i == len(picks):
                picks = self._rng.random(_SAMPLE_BLOCK).tolist()
                pick_i = 0
            m = len(waiting)
            j = int(picks[pick_i] * m)
            pick_i += 1
            if j >= m:
                j = m - 1
            owners.append(waiting[j])
            waiting[j] = waiting[-1]
            waiting.pop()
        self._joined = joined
        self._picks, self._pick_i = picks, pick_i
        owners = np.array(owners, dtype=np.int64)
        if (owners == self.oldest).any():
            self.oldest = min(waiting, default=joined)
        return owners


def _queue_path(arrival_times: np.ndarray, departure_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable merge of sorted arrival and departure times, arrivals first
    at ties, with the queue length after each event."""
    times = np.concatenate((arrival_times, departure_times))
    order = np.argsort(times, kind="stable")
    times = times[order]
    steps = np.where(order < len(arrival_times), np.int8(1), np.int8(-1))
    del order  # freed before the cumsum allocates the counts
    return times, np.cumsum(steps, dtype=np.int64)


def _cap_exceeded(index: int, arrivals: _Arrivals, first_slot: int,
                  departure_times: np.ndarray) -> EventCapExceeded:
    """The error for the run reaching event ``index`` (0-based, in the
    merged order of ``_queue_path``) with a cap of ``index`` events spent.

    ``departure_times`` are those of the slots from ``first_slot`` on;
    every earlier slot departs before that event.
    """
    d_pos = first_slot + np.arange(len(departure_times)) + arrivals.count_upto(departure_times)
    j = int(np.searchsorted(d_pos, index))
    n_dep = first_slot + j  # departures before the event
    if j < len(d_pos) and d_pos[j] == index:
        t = float(departure_times[j])
    else:
        i = index - n_dep
        t = float(arrivals.at(i))
    n = index - 2 * n_dep
    return EventCapExceeded(
        f"event cap {index} exceeded at t={t:.6g} (queue length {n})",
        events=index,
        time_reached=t,
        queue_length=n,
    )


def _canonical_path(ev_times, ev_counts, initial_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the last event of each timestamp, then drop no-op levels.

    Each event moves the level by one, so only tied timestamps leave a
    no-op level: a path whose times strictly increase comes back as is.
    """
    times = np.asarray(ev_times, dtype=float)
    counts = np.asarray(ev_counts, dtype=np.int64)
    if not np.all(times[1:] > times[:-1]):
        keep = np.ones(times.size, dtype=bool)
        keep[:-1] = times[1:] != times[:-1]
        times = times[keep]
        counts = counts[keep]
        prev = np.concatenate(([initial_count], counts[:-1]))
        changed = counts != prev
        times = times[changed]
        counts = counts[changed]
    return times, counts


def _lindley(arrival_times, service_durations) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(arrival_times, dtype=float)
    s = np.asarray(service_durations, dtype=float)
    if a.shape != s.shape or a.ndim != 1:
        raise ValueError("arrival_times and service_durations must be 1-d and equal length")
    if a.size and a[0] < 0:
        raise ValueError("arrival_times must be nonnegative")
    if np.any(np.diff(a) < 0):
        raise ValueError("arrival_times must be nondecreasing")
    delays = np.empty_like(a)
    departures = np.empty_like(a)
    dep_prev = -math.inf
    for j, (aj, sj) in enumerate(zip(a.tolist(), s.tolist())):
        start = dep_prev if dep_prev > aj else aj
        delays[j] = start - aj
        dep_prev = start + sj
        departures[j] = dep_prev
    return delays, departures


def lindley_fcfs(arrival_times, service_durations) -> np.ndarray:
    """Queueing delays under first-come-first-served via the standard
    recursion: each delay is the previous departure's overhang past the
    current arrival, floored at zero.

    Departure times reconstruct as arrival + delay + service; that sum
    can differ from ``fcfs_departure_times`` by one ulp where the
    overhang subtraction rounds, so exact comparisons should use the
    departure form.
    """
    delays, _ = _lindley(arrival_times, service_durations)
    return delays


def fcfs_departure_times(arrival_times, service_durations) -> np.ndarray:
    """Departure times implied by the delay recursion: service start is
    the max of the previous departure and the arrival, and departure
    adds the duration once.  These are the float operations of the slot
    recursion in ``simulate``, written out separately here, so the
    result is bitwise comparable against simulated FCFS departures on
    shared sampled durations.
    """
    _, departures = _lindley(arrival_times, service_durations)
    return departures

