"""Tests of the independent checker (no program code involved).

    python3 -m pytest tdmbench/test_checker.py
"""

from __future__ import annotations

import numpy as np

import checker
import props


def test_router_counts_injection_and_ejection_links():
    r = checker.TorusRouter(8)
    path = r.route(0, 3)
    assert path[0] == 0 and path[-1] == 64 + 3
    assert len(path) == 2 + 3
    # half-ring offsets: even sources go positive, odd ones negative
    assert r.route(0, 4)[1] == 128 + 4 * 0 + 0
    assert r.route(1, 5)[1] == 128 + 4 * 1 + 1


def test_valid_schedule_passes():
    r = checker.TorusRouter(8)
    pairs = [(0, 1), (2, 3), (1, 2)]
    assert checker.check_schedule(r, [[(0, 1), (2, 3)], [(1, 2)]], pairs, degree=2) == []


def test_conflicting_connections_in_one_slot_are_rejected():
    r = checker.TorusRouter(8)
    # 0->2 and 1->3 share the +x fiber leaving node 1
    errors = checker.check_schedule(r, [[(0, 2), (1, 3)]], [(0, 2), (1, 3)], degree=1)
    assert any("share link" in e for e in errors)
    # a common source shares the injection fiber
    errors = checker.check_schedule(r, [[(5, 6), (5, 40)]], [(5, 6), (5, 40)])
    assert any("share link 5" in e for e in errors)


def test_dropped_request_is_rejected():
    r = checker.TorusRouter(8)
    errors = checker.check_schedule(r, [[(0, 1)]], [(0, 1), (2, 3)], degree=1)
    assert any("1 requested pairs missing" in e for e in errors)


def test_degree_below_link_load_is_rejected():
    r = checker.TorusRouter(8)
    pairs = [(0, 1), (0, 2)]
    errors = checker.check_schedule(r, [[(0, 1)], [(0, 2)]], pairs, degree=1)
    assert errors


def test_all_to_all_bounds():
    assert checker.all_to_all_bound(8, 8) == 64
    assert checker.all_to_all_bound(64, 64) == 32768
    r = checker.TorusRouter(8)
    assert checker.max_link_load(r, [(s, d) for s in range(64) for d in range(64) if s != d]) == 64


def test_fastpath_check_rejects_a_conflicting_slot():
    r = checker.TorusRouter(4)
    n = r.n
    slot_of = np.full((n, n), -1)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    for i, (s, d) in enumerate(pairs):
        slot_of[s, d] = i
    sizes = np.ones(len(pairs), dtype=np.int64)
    assert checker.check_fastpath(r, slot_of, sizes, len(pairs), sample=[0, 5]) == []
    slot_of[1, 2] = slot_of[0, 2]        # 0->2 and 1->2 now share a slot
    sizes = np.bincount(slot_of[slot_of >= 0], minlength=len(pairs))
    errors = checker.check_fastpath(r, slot_of, sizes, len(pairs), sample=[int(slot_of[0, 2])])
    assert any("share link" in e for e in errors)


def test_connectivity_needs_every_outgoing_fiber_cut():
    r = checker.TorusRouter(4)
    out_of_0 = [2 * 16 + 4 * 0 + i for i in range(4)]
    assert r.connected(0, 5, out_of_0[:3])
    assert not r.connected(0, 5, out_of_0)


def test_register_image_count():
    r = checker.TorusRouter(4)
    slots = [[(0, 1)]]
    words = {v: [(-1,) * 5] for v in range(16)}
    words[0] = [(1, -1, -1, -1, -1)]
    words[1] = [(-1, 0, -1, -1, -1)]
    assert props.check_registers(r, words, slots) == []
    words[1] = [(-1,) * 5]
    assert props.check_registers(r, words, slots)
