"""Concurrent callers: threads that run at different precisions get the bits
a single thread gets, and leave mpmath's working precision as they found it;
code that sets no precision does not wait for a thread that does."""
import sys
import threading

from mpmath import mp, mpc

from heulag import Extrapolant, ModelId, PrecisionContext, closed_form, direct_integral_oracle
from heulag import cli, models, specfun


def _interleaved(jobs, monkeypatch):
    """Run each (call, count) job count times in a thread of its own, the
    threads at once and switching every microsecond; returns each job's
    results, the exceptions raised and mp.dps as the threads left it, which
    is then restored for the tests that follow. The caches the calls fill
    start empty, so the threads grow them at once too."""
    monkeypatch.setattr(specfun, "_bern_even", [])
    monkeypatch.setattr(specfun, "_tangent_edge", [])
    specfun._em_corrections.cache_clear()
    models._node_factors.cache_clear()
    results, errors = [[] for _ in jobs], []

    def run(call, n, out):
        try:
            out.extend(call() for _ in range(n))
        except Exception as e:  # reported below, with the thread's results
            errors.append(e)

    threads = [threading.Thread(target=run, args=(call, n, out))
               for (call, n), out in zip(jobs, results)]
    dps, interval = mp.dps, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        left, mp.dps = mp.dps, dps
    assert not any(t.is_alive() for t in threads)
    return results, errors, left


def _wrong(results, want) -> int:
    return sum(r != want for r in results)


def test_threads_at_two_precisions_get_the_single_thread_bits(monkeypatch):
    # unserialized, each thread's scopes could run at, or restore, the other's
    # precision: the 300-digit results lose digits, the 40-digit ones change bits
    calls = [lambda c=PrecisionContext(digits): closed_form(ModelId.SPIN0, "2", c)._mpf_
             for digits in (300, 40)]
    want = [call() for call in calls]
    got, errors, dps = _interleaved([(calls[0], 40), (calls[1], 400)], monkeypatch)
    assert ([_wrong(r, w) for r, w in zip(got, want)], errors, dps) == ([0, 0], [], mp.dps)


def test_extrapolant_and_oracle_threads_get_the_single_thread_bits(monkeypatch, reconstruct):
    ctx = PrecisionContext(60)
    ext = Extrapolant.build(reconstruct(ModelId.SPIN0, 20, 60), None, ctx)
    calls = [lambda: [ext.evaluate(b) for b in ("0.5", "3", "40", "1e5")],
             lambda: direct_integral_oracle(ModelId.SPIN_HALF, "3", ctx)._mpf_]
    want = [call() for call in calls]
    got, errors, dps = _interleaved([(calls[0], 40), (calls[1], 6)], monkeypatch)
    assert ([_wrong(r, w) for r, w in zip(got, want)], errors, dps) == ([0, 0], [], mp.dps)


def test_rounding_and_agreement_do_not_wait_for_a_scope():
    # neither sets a precision, so neither takes the lock that another
    # thread's precision scope holds
    ctx = PrecisionContext(60)
    with mp.workdps(100):
        x, z = +mp.pi, mpc(mp.e, -mp.pi)
    calls = [lambda: ctx.round(x)._mpf_, lambda: ctx.round(z)._mpc_,
             lambda: cli._agree_digits(x, ctx.round(x))]
    want = [call() for call in calls]
    held, release, got = threading.Event(), threading.Event(), []

    def hold():
        with specfun._lock:
            held.set()
            release.wait(60)

    holder = threading.Thread(target=hold)
    worker = threading.Thread(target=lambda: got.extend(call() for call in calls))
    holder.start()
    assert held.wait(60)
    try:
        worker.start()
        worker.join(timeout=5)
        waited = worker.is_alive()
    finally:
        release.set()
        holder.join(60)
        worker.join(60)
    assert (waited, got) == (False, want)
