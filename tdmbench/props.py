"""Property checks on simulator runs and register images.

Each function returns a list of error strings (empty = the property
holds).  Message fields read here are the simulator's public result:
``mid``, ``src``, ``dst``, ``size``, ``slot``, ``delivered`` and ``lost``.
"""

from __future__ import annotations

from checker import TorusRouter


def check_delivered(messages, pattern, *, lost_ok=()) -> list[str]:
    """Each message of ``pattern`` appears once and is delivered once."""
    errors = []
    if [m.mid for m in messages] != list(range(len(pattern))):
        return [f"{len(messages)} messages for {len(pattern)} requests"]
    for m, (s, d, z) in zip(messages, pattern):
        if (m.src, m.dst, m.size) != (s, d, z):
            errors.append(f"message {m.mid} is {(m.src, m.dst, m.size)}, not {(s, d, z)}")
        elif m.lost is not None and m.mid not in lost_ok:
            errors.append(f"message {m.mid} lost at slot {m.lost}")
        elif (m.delivered is None) == (m.lost is None):
            errors.append(f"message {m.mid} delivered={m.delivered} lost={m.lost}")
    return errors[:5]


def check_compiled(res, pattern, params) -> list[str]:
    """Fault-free compiled run: every delivery sits in its frame window."""
    errors = check_delivered(res.messages, pattern)
    if errors:
        return errors
    k = res.degree
    slot_of = {c.index: i for i, cfg in enumerate(res.schedule) for c in cfg}
    start = params.compiled_startup
    for m in res.messages:
        chunks = -(-m.size // params.slot_payload)
        if m.slot != slot_of.get(m.mid) or not 0 <= m.slot < k:
            errors.append(f"message {m.mid} in slot {m.slot}, scheduled in "
                          f"{slot_of.get(m.mid)}")
        elif (m.delivered - 1 - m.slot) % k:
            errors.append(f"message {m.mid} delivered at {m.delivered}, off its slot")
        elif not start + (chunks - 1) * k < m.delivered <= start + chunks * k:
            errors.append(f"message {m.mid} delivered at {m.delivered}, outside "
                          f"({start + (chunks - 1) * k}, {start + chunks * k}]")
    if res.completion_time != max(m.delivered for m in res.messages):
        errors.append(f"completion {res.completion_time} is not the last delivery")
    return errors[:5]


def check_same_run(closed, stepped) -> list[str]:
    """The closed form and the slot-stepped simulator agree exactly."""
    if closed.completion_time != stepped.completion_time:
        return [f"closed form {closed.completion_time} != stepped {stepped.completion_time}"]
    diff = [a.mid for a, b in zip(closed.messages, stepped.messages)
            if a.delivered != b.delivered]
    return [f"deliveries differ for messages {diff[:5]}"] if diff else []


def check_faulty(router: TorusRouter, messages, pattern, faults) -> list[str]:
    """Messages are delivered once or lost, and lost only when a cut
    disconnects their endpoints at the slot they were given up."""
    errors = []
    if [m.mid for m in messages] != list(range(len(pattern))):
        return [f"{len(messages)} messages for {len(pattern)} requests"]
    for m in messages:
        if (m.delivered is None) == (m.lost is None):
            errors.append(f"message {m.mid} delivered={m.delivered} lost={m.lost}")
        elif m.lost is not None and router.connected(m.src, m.dst,
                                                     faults.failed_at(m.lost)):
            errors.append(f"message {m.mid} lost at {m.lost} with its endpoints connected")
    return errors[:5]


def check_epochs(res, pattern, updates) -> list[str]:
    """Epoch run: the original and added messages are each delivered once,
    except removed ones, which may instead be cancelled."""
    added = [a for _, adds, _ in updates for a in adds]
    removed = {m for _, _, rem in updates for m in rem}
    full = list(pattern) + added
    errors = check_delivered(res.messages, full, lost_ok=removed)
    cancelled = sum(m.lost is not None for m in res.messages)
    if cancelled != res.cancelled:
        errors.append(f"{cancelled} messages cancelled, result says {res.cancelled}")
    return errors


def check_registers(router: TorusRouter, words, slots) -> list[str]:
    """A register image has one word per switch and slot, and lights one
    switch input per switch each connection crosses."""
    k = len(slots)
    if sorted(words) != list(range(router.n)):
        return [f"register image covers {len(words)} switches, not {router.n}"]
    if any(len(w) != k for w in words.values()):
        return [f"register words per switch differ from K={k}"]
    lit = [0] * k
    for per_slot in words.values():
        for i, word in enumerate(per_slot):
            lit[i] += sum(p != -1 for p in word)
    errors = []
    for i, slot in enumerate(slots):
        want = sum(len(router.route(s, d)) - 1 for s, d in slot)
        if lit[i] != want:
            errors.append(f"slot {i}: {lit[i]} switch inputs lit, expected {want}")
    return errors[:3]
