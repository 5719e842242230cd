"""The names the benchmark tracer wraps (``bench/spans.py``) stay in use.

The tracer replaces module attributes by name and reads row counts from the
calls: ``rows`` from the result of ``maxcsp.sampler.assignment_bits`` and
from the bit matrix passed to ``maxcsp.sampler.weight_of_batch``. A caller
that bypassed or renamed one of them would leave its spans empty, so these
wrappers must see every sampled row and every oracle enumeration. With
real weights the kernel sees every sampled row once, counted on the
quantized instance, and then the candidate rows again in float. The
matrices the sampler hands to the kernel must stay in Fortran order, the
layout it packs fastest, and at parallelism 2 each worker's batch must run
off the calling thread, where the tracer files it under the open solve span.
"""

import threading

import maxcsp
import maxcsp.oracle as oracle
import maxcsp.sampler as sampler


def _counting(monkeypatch, module, name, rows):
    calls = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(rows(args, result))
        return result

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_traced_names_see_every_row(monkeypatch):
    bits = _counting(monkeypatch, sampler, "assignment_bits", lambda a, r: r.shape[0])
    batch = _counting(
        monkeypatch,
        sampler,
        "weight_of_batch",
        lambda a, r: (a[1].shape[0], a[1].flags.f_contiguous),
    )
    table = _counting(monkeypatch, oracle, "assignment_weights", lambda a, r: r.shape[0])

    inst = maxcsp.random_ekcnf(12, 40, 3, seed=1)
    res = maxcsp.solve(inst, maxcsp.SamplerConfig(epsilon=0.125, fail_prob=1e-2, seed=3))
    # one batch per chunk, and one more row to rebuild the best assignment
    assert sum(rows for rows, _ in batch) == res.iterations_used
    # the kernel packs Fortran-order bits with one packbits per chunk; any
    # other layout first takes an np.asfortranarray copy
    assert all(f_contiguous for _, f_contiguous in batch)
    assert sum(bits) == res.iterations_used + 1
    assert table == []

    rep = maxcsp.verify_counting_bound(inst, 0.125)
    assert rep.all_pass
    assert table == [1 << inst.num_vars]

    # at parallelism 2 the benchmark hangs each worker's batch span under the
    # open solve span: one batch per worker, both off the calling thread
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    threads = _counting(monkeypatch, sampler, "weight_of_batch", lambda a, r: threading.get_ident())
    inst = maxcsp.random_ekcnf(16, 60, 3, seed=1)
    cfg = maxcsp.SamplerConfig(epsilon=0.1, max_iterations=4000, parallelism=2)
    assert maxcsp.solve(inst, cfg).iterations_used == 4000
    assert len(threads) == 2 and threading.get_ident() not in threads


def test_real_weights_count_every_row_then_evaluate_the_candidates(monkeypatch):
    batch = _counting(
        monkeypatch,
        sampler,
        "weight_of_batch",
        lambda a, r: (a[0].counted_weights, a[1].shape[0], a[1].flags.f_contiguous),
    )
    inst = maxcsp.random_wcnf(16, 60, 4, seed=1)
    res = maxcsp.solve(inst, maxcsp.SamplerConfig(epsilon=0.01, max_iterations=20_000, seed=3))
    counted = [rows for is_counted, rows, _ in batch if is_counted]
    candidates = [rows for is_counted, rows, _ in batch if not is_counted]
    # one chunk: its count, then its few candidates in float
    assert counted == [res.iterations_used]
    assert len(candidates) == 1 and 0 < candidates[0] < res.iterations_used // 8
    assert all(f_contiguous for _, _, f_contiguous in batch)
