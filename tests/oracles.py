"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: full rescans, brute-force pair
counts, exhaustive grid searches. None of it shares code with the library
paths it verifies.
"""

from __future__ import annotations

import numpy as np


class NaiveBook:
    """Order book that recomputes best quotes by scanning all active orders."""

    def __init__(self):
        self.active = {}  # id -> (side, price, size)

    def submit(self, order_id, side, price, size):
        assert order_id not in self.active
        self.active[order_id] = (side, price, size)

    def remove(self, order_id, delta=None):
        side, price, size = self.active[order_id]
        if delta is None or delta >= size:
            assert delta is None or delta == size
            del self.active[order_id]
        else:
            self.active[order_id] = (side, price, size - delta)

    def best_quotes(self):
        bids = [(p, s) for side, p, s in self.active.values() if side == 1]
        asks = [(p, s) for side, p, s in self.active.values() if side == -1]
        bb = max((p for p, _ in bids), default=None)
        ba = min((p for p, _ in asks), default=None)
        nb = sum(s for p, s in bids if p == bb) if bb is not None else 0
        na = sum(s for p, s in asks if p == ba) if ba is not None else 0
        return bb, ba, nb, na


def pairwise_auc(scores, labels):
    """O(n^2) probability that a random positive outscores a random negative,
    ties at half credit."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels).astype(bool)
    pos = s[y]
    neg = s[~y]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def grid_search_logistic(I, y, x0_range=(-1.0, 1.0), x1_range=(0.0, 5.0), fine_step=1e-3):
    """Coarse-to-fine exhaustive maximizer of the Bernoulli log-likelihood."""
    I = np.asarray(I, dtype=float)
    y = np.asarray(y, dtype=float)

    def loglik_grid(x0s, x1s):
        eta = x0s[:, None, None] + x1s[None, :, None] * I[None, None, :]
        return np.sum(y * eta - np.logaddexp(0.0, eta), axis=2)

    x0s = np.arange(x0_range[0], x0_range[1] + 1e-12, 0.05)
    x1s = np.arange(x1_range[0], x1_range[1] + 1e-12, 0.05)
    ll = loglik_grid(x0s, x1s)
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    c0, c1 = x0s[i], x1s[j]
    x0s = np.arange(c0 - 0.06, c0 + 0.06 + 1e-12, fine_step)
    x1s = np.arange(c1 - 0.06, c1 + 0.06 + 1e-12, fine_step)
    ll = loglik_grid(x0s, x1s)
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    return float(x0s[i]), float(x1s[j])


def weighted_grid_search_logistic(z, y, w, b0_range, b1_range, fine_step=1e-3):
    """Exhaustive maximizer of a weighted logistic log-likelihood."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)

    def loglik_grid(b0s, b1s):
        eta = b0s[:, None, None] + b1s[None, :, None] * z[None, None, :]
        return np.sum(w * (y * eta - np.logaddexp(0.0, eta)), axis=2)

    b0s = np.arange(b0_range[0], b0_range[1] + 1e-12, 0.05)
    b1s = np.arange(b1_range[0], b1_range[1] + 1e-12, 0.05)
    ll = loglik_grid(b0s, b1s)
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    c0, c1 = b0s[i], b1s[j]
    b0s = np.arange(c0 - 0.06, c0 + 0.06 + 1e-12, fine_step)
    b1s = np.arange(c1 - 0.06, c1 + 0.06 + 1e-12, fine_step)
    ll = loglik_grid(b0s, b1s)
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    return float(b0s[i]), float(b1s[j])


def reference_weighted_logistic_mle(z, y, w, start=(0.0, 0.0)):
    """The weighted Newton solver as it stood before it shared one exp per
    iteration: the sigmoid and the log-likelihood are computed afresh at every
    iterate and every candidate, and a step is halved until the
    log-likelihood does not fall. Same tolerances, same return tuple as
    ``logistic.weighted_logistic_mle``."""
    decrement_tol_per_weight, max_iter, separation_slope = 1e-12, 100, 30.0

    def sigmoid(eta):
        e = np.exp(-np.abs(eta))
        return np.where(eta >= 0.0, 1.0, e) / (1.0 + e)

    def loglik(eta):
        softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        return float(np.sum(w * (y * eta - softplus)))

    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    b0, b1 = (float(b) for b in start)
    eta = b0 + b1 * z
    ll = loglik(eta)
    decrement_tol = decrement_tol_per_weight * float(w.sum())
    converged = stalled = False
    iterations = 0
    h00 = h01 = h11 = det = 0.0
    while iterations < max_iter and not (converged or stalled):
        p = sigmoid(eta)
        r = w * (y - p)
        g0 = float(r.sum())
        g1 = float(r @ z)
        ww = w * p * (1.0 - p)
        h00 = float(ww.sum())
        h01 = float(ww @ z)
        h11 = float(ww @ (z * z))
        det = h00 * h11 - h01 * h01
        if not np.isfinite(det) or det <= 0.0:
            break
        d0 = (h11 * g0 - h01 * g1) / det
        d1 = (h00 * g1 - h01 * g0) / det
        converged = 0.5 * (g0 * d0 + g1 * d1) <= decrement_tol
        step = 1.0
        while True:
            cb0 = b0 + step * d0
            cb1 = b1 + step * d1
            ceta = cb0 + cb1 * z
            stalled = np.array_equal(ceta, eta)
            if stalled:
                break
            cll = loglik(ceta)
            if converged or cll >= ll:
                b0, b1, eta, ll = cb0, cb1, ceta, cll
                iterations += 1
                break
            step *= 0.5
    separated = abs(b1) > separation_slope
    cov = None
    if det > 0.0 and np.isfinite(det):
        c00, c11, c01 = h11 / det, h00 / det, -h01 / det
        if np.isfinite(c00) and np.isfinite(c11) and c00 > 0 and c11 > 0:
            cov = ((c00, c01), (c01, c11))
        else:
            separated = True
    else:
        separated = True
    return b0, b1, ll, iterations, converged, separated, cov


def survivor_by_counting(lengths):
    """P(X > v) at each distinct observed value, via direct counting."""
    x = np.asarray(lengths)
    values = np.unique(x)
    return values, np.array([np.mean(x > v) for v in values])


def coalesced_timeline(raw):
    """The last quote of each nanosecond, with records that repeat the quote
    before them dropped, from quotes ``(t_ns, bid, ask, nb, na)`` read in
    time order (one after every message, say). Two passes: keep the last
    quote per timestamp, then drop the repeats that overwriting left."""
    times, states = [], []
    for st in raw:
        if times and times[-1] == st[0]:
            if states[-1][1:] == st[1:]:
                continue
            states[-1] = st
        else:
            # a same-nanosecond flicker can net out entirely
            if states and states[-1][1:] == st[1:]:
                continue
            times.append(st[0])
            states.append(st)
    out = []
    for st in states:
        if out and out[-1][1:] == st[1:]:
            continue
        out.append(st)
    return out


def verify_row_by_row(rows, reference, checked=None):
    """Level-1 verification one row at a time: each of the first ``checked``
    of ``rows`` (all of them if None) against the next row of the parsed
    ``reference`` (a text-file object), pulled only when it is compared.
    With ``checked`` None the left-over reference rows are then counted and
    a row count that differs is a DataError; otherwise the mismatches
    found so far are returned. Uses only the per-line parser of the package."""
    from queuecast import lobster as lb
    from queuecast.errors import DataError

    parsed = enumerate(row for _, row in lb._l1_rows(reference, 0))
    mismatches, unmatched = [], 0
    for row in rows[:checked]:
        for i, ref in parsed:
            if ref != row:
                mismatches.append(lb.Mismatch(i, row, ref))
            break
        else:
            unmatched += 1
    if checked is not None:
        return mismatches
    n_reference = len(rows) - unmatched + sum(1 for _ in parsed)
    if n_reference != len(rows):
        raise DataError(
            f"row count mismatch: {len(rows)} reconstructed vs {n_reference} reference"
        )
    return lb.VerificationReport(len(rows), mismatches)


def _at(states, t_ns):
    """The last record at or before t_ns, by a full scan; None if there is none."""
    before = [st for st in states if st[0] <= t_ns]
    return before[-1] if before else None


def _two_sided(st):
    return st is not None and st[1] is not None and st[2] is not None


def mid_changes(states, t0_ns):
    """(t, y) at each change of the half-tick mid after t0: the reference mid
    is the one at t0 (None if the book there is one-sided), one-sided records
    leave it as it is, and y is 1 for an upward move."""
    base = _at(states, t0_ns)
    prev = base[1] + base[2] if _two_sided(base) else None
    out = []
    for st in states:
        if st[0] <= t0_ns or not _two_sided(st):
            continue
        mid = st[1] + st[2]
        if prev is not None and mid != prev:
            out.append((st[0], 1 if mid > prev else 0))
        prev = mid
    return out


def reference_day_sample(states, first_event_ns, close_ns, mode, rng):
    """One imbalance point per in-session mid change, drawn inside the
    interval since the change before (or since first_event_ns), from
    records ``(t_ns, bid, ask, nb, na)`` with times rising strictly.

    Uniform mode draws a nanosecond strictly inside the interval and reads
    the record prevailing there; an interval with no interior nanosecond is
    skipped unsampled. Event mode draws one two-sided record strictly inside
    the interval; without one it falls back, undrawn, to the record
    prevailing at the interval's start. A point whose record is one-sided or
    has both queues empty is skipped. Returns the points as tuples
    ``(t_sample, t_change, I, y, nb, na, fallback)`` and the counts."""
    changes = mid_changes(states, first_event_ns)
    in_session = [c for c in changes if c[0] < close_ns]
    counts = {"n_changes": len(in_session), "dropped_after_close": len(changes) - len(in_session),
              "skipped_one_sided": 0, "skipped_empty_interval": 0, "fallback_points": 0}
    points = []
    t_prev = first_event_ns
    for t_change, label in in_session:
        fallback = False
        if mode == "uniform" and t_change - t_prev < 2:
            counts["skipped_empty_interval"] += 1
            t_prev = t_change
            continue
        if mode == "uniform":
            t_sample = int(rng.integers(t_prev + 1, t_change))
            st = _at(states, t_sample)
        else:
            inside = [st for st in states if t_prev < st[0] < t_change and _two_sided(st)]
            if inside:
                st = inside[int(rng.integers(len(inside)))]
                t_sample = st[0]
            else:
                st, t_sample, fallback = _at(states, t_prev), t_prev, True
        if not _two_sided(st) or st[3] + st[4] == 0:
            counts["skipped_one_sided"] += 1
        else:
            counts["fallback_points"] += fallback
            imbalance = (st[3] - st[4]) / (st[3] + st[4])
            points.append((t_sample, t_change, imbalance, label, st[3], st[4], fallback))
        t_prev = t_change
    return points, counts


def process_counts(messages, preamble, start_ns, end_ns):
    """The zero-intelligence flow's Poisson counts, recounted from its message
    stream ``(t_ns, type, order_id, size, price, direction)``, and the integral
    of the resting-order count over [start_ns, end_ns) in order x ns.

    Each message after the first ``preamble`` (the initial book) counts once: a
    submission is a limit order of its direction, an execution against a sell
    (direction -1) a buy market order and against a buy a sell market order,
    and a full delete a cancel. Every message moves the resting-order count."""
    counts = dict.fromkeys(("buy_limit", "sell_limit", "buy_market", "sell_market", "cancel"), 0)
    resting = {}  # order id -> size left
    order_ns, t_prev = 0, start_ns
    for i, (t_ns, code, order_id, size, _price, direction) in enumerate(messages):
        order_ns += len(resting) * (t_ns - t_prev)
        t_prev = t_ns
        if code == 1:
            resting[order_id] = size
            key = "buy_limit" if direction == 1 else "sell_limit"
        elif code == 4:
            resting[order_id] -= size
            if not resting[order_id]:
                del resting[order_id]
            key = "buy_market" if direction == -1 else "sell_market"
        elif code == 3:
            del resting[order_id]
            key = "cancel"
        else:
            raise AssertionError(f"message type {code} is not in the flow")
        if i >= preamble:
            counts[key] += 1
    order_ns += len(resting) * (end_ns - t_prev)
    return counts, order_ns


def reference_order_flow(cfg):
    """The zero-intelligence message stream of ``cfg`` and whether a side
    depleted, from the generator as it stood before its per-message work was
    cut: a resting-order registry kept through a ``drop_resting`` helper,
    driven through ``lobster.replay`` on a book the generator reads."""
    import itertools
    import math

    from queuecast import book as bk
    from queuecast import lobster as lb

    ob = bk.OrderBook(tick_size=cfg.tick_size)
    depleted = [False]
    messages = []

    def flow():
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
        draw = itertools.chain.from_iterable(iter(lambda: rng.random(8192).tolist(), None)).__next__
        tick_i4 = round(cfg.tick_size * 10000)
        size, levels = cfg.order_size, cfg.levels
        registry, pos = [], {}
        next_id = 1
        start_ns = cfg.start_time_s * lb.NS
        end_ns = start_ns + round(cfg.horizon * lb.NS)

        def drop_resting(order_id):
            i = pos.pop(order_id)
            last = registry.pop()
            if last != order_id:
                registry[i] = last
                pos[last] = i

        for lvl in range(cfg.initial_levels):
            for price in (cfg.initial_price - lvl, cfg.initial_price + cfg.initial_spread + lvl):
                side = bk.BUY if price <= cfg.initial_price else bk.SELL
                for _ in range(cfg.initial_depth):
                    yield (start_ns, lb.SUBMISSION, next_id, size, price * tick_i4, side)
                    pos[next_id] = len(registry)
                    registry.append(next_id)
                    next_id += 1

        rate_limit_side = cfg.limit_rate * levels
        rate_limit = 2.0 * rate_limit_side
        rate_buy_market = rate_limit + cfg.market_rate
        base_rate = rate_limit + 2.0 * cfg.market_rate
        t_ns = start_ns
        while True:
            n_resting = len(registry)
            total_rate = base_rate + cfg.cancel_rate * n_resting
            if total_rate <= 0.0:
                break
            t_ns += int(-math.log(1.0 - draw()) / total_rate * 1e9) + 1
            if t_ns >= end_ns:
                break
            v = draw() * total_rate
            if v < rate_limit:
                side = bk.BUY if v < rate_limit_side else bk.SELL
                anchor = ob.best(-side)
                if anchor is None:
                    depleted[0] = True
                    break
                offset = int(draw() * levels)
                price = anchor - 1 - offset if side == bk.BUY else anchor + 1 + offset
                price = max(price, 1)
                yield (t_ns, lb.SUBMISSION, next_id, size, price * tick_i4, side)
                pos[next_id] = len(registry)
                registry.append(next_id)
                next_id += 1
            elif v < base_rate:
                side = bk.BUY if v < rate_buy_market else bk.SELL
                remaining = size
                while remaining > 0:
                    top = ob.best(-side)
                    if top is None:
                        depleted[0] = True
                        break
                    head = ob.first_at_best(-side)
                    fill = min(remaining, head.size)
                    yield (t_ns, lb.EXECUTION, head.id, fill, top * tick_i4, -side)
                    if not ob.has_order(head.id):
                        drop_resting(head.id)
                    remaining -= fill
                if depleted[0]:
                    break
            else:
                oid = registry[int(draw() * n_resting)]
                order = ob.get_order(oid)
                yield (t_ns, lb.FULL_DELETE, oid, order.size, order.price * tick_i4, order.side)
                drop_resting(oid)
            if ob.best(bk.BUY) is None or ob.best(bk.SELL) is None:
                depleted[0] = True
                break

    def kept():
        for msg in flow():
            messages.append(msg)
            yield msg

    lb.replay(kept(), tick_size=cfg.tick_size, ob=ob)
    return messages, depleted[0]


def integrated_timeline(timeline, open_ns, close_ns):
    """(nb, na, spread) time integrals and the two-sided time over
    [open_ns, close_ns), each record ``(t_ns, bid, ask, nb, na)`` holding from
    its time until the next record's (the last until the close), one
    nanosecond at a time."""
    nb = na = spread = covered = 0
    for i, (t, bid, ask, n_bid, n_ask) in enumerate(timeline):
        t_end = timeline[i + 1][0] if i + 1 < len(timeline) else close_ns
        if bid is None or ask is None:
            continue
        for _ in range(max(t, open_ns), min(t_end, close_ns)):
            nb += n_bid
            na += n_ask
            spread += ask - bid
            covered += 1
    return nb, na, spread, covered
