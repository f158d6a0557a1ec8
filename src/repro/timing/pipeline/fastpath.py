"""Fused per-cycle steps for the compiled schedule.

The compiled engine's contract is that every module contributes its
per-cycle behaviour through ``bind_tick`` (see
:mod:`repro.timing.schedule`).  The generic ``Frontend.tick`` and
``Backend.tick`` bodies call through Connector methods, Uop generator
helpers and ``Module.bump`` thousands of times per simulated cycle --
pure Python dispatch overhead that an FPGA would have elaborated away
at compile time.  This module is the software analogue of that static
elaboration: ``bind_frontend_tick`` / ``bind_backend_tick`` return
closures that hoist every stable attribute into locals and inline the
Connector/queue/counter operations, while performing the *identical*
sequence of state mutations, counter bumps, feed calls and predictor
calls as the legacy path.

Bit-identity rules the implementation:

* every ``bump`` becomes an inlined ``d[k] = d.get(k, 0) + 1`` on the
  same module's counter dict, in the same control-flow position;
* attributes that squash paths *rebind* (``Backend.rs``, ``lsq``,
  ``in_flight``, ``on_instr_commit``) are read fresh at each use;
  attributes that are only mutated in place (``rob``,
  ``reg_producer``, connector deques, unit busy lists) are hoisted;
* rare paths (drain, resolve, interrupt redirect, load issue) still
  call the original methods so there is exactly one copy of their
  logic;
* record lifetimes match too: a µop's ``deps`` are emptied where it
  becomes ``U_ISSUED``, and dispatch records an instruction's newest
  µop as ``DynInstr.last_seq``, never by reference.  ``DynUop.instr``
  stays the only back edge, so no record is part of a reference cycle
  and each one is freed the moment the ROB, the queues and the
  register map drop it (see :mod:`repro.timing.pipeline.dynamic`).

Uop templates are immutable after cracking, so their per-µop metadata
(unit class, source/destination register tuples, unpipelined flag) is
computed once and cached on ``Uop.meta`` instead of re-walking the
``sources()`` / ``destinations()`` generators at every dispatch.

A corollary of the bit-identity rules: the fused closures carry **no
observability probes**.  FastWatch invariants over the structures these
closures mutate (ROB/RS occupancy bounds, Connector credits) attach as
cycle listeners on the engine (see the "Invariant step hook" section of
:mod:`repro.timing.schedule`), which run after the cycle's steps on
both engines -- checking mid-step here would observe half-evaluated
cycles and differ between the fused and legacy orderings.
"""

from __future__ import annotations

import operator

from repro.microcode.uop import (
    KIND_TO_UNIT,
    UOP_BRANCH,
    UOP_JUMP,
    UOP_LOAD,
    UOP_STORE,
    Uop,
)
from repro.timing.pipeline.dynamic import (
    DynInstr,
    DynUop,
    U_DONE,
    U_ISSUED,
    U_SQUASHED,
)

# frontend.py and backend.py import this module at top level, and this
# module needs names from both of them; those reverse imports are
# deferred into the functions to break the import cycle.


def _uop_meta(uop: Uop):
    """Compute and cache the dispatch/issue metadata for a µop template.

    Layout: ``(unit, is_mem, sources, destinations, kind,
    holds_unit_for_latency, lat)``.
    """
    from repro.timing.pipeline.backend import UNPIPELINED

    kind = uop.kind
    meta = (
        KIND_TO_UNIT[kind],
        kind == UOP_LOAD or kind == UOP_STORE,
        tuple(uop.sources()),
        tuple(uop.destinations()),
        kind,
        uop.op in UNPIPELINED or kind == UOP_LOAD,
        uop.lat,
    )
    uop.meta = meta
    return meta


def bind_frontend_tick(fe):
    """Fused Fetch+Decode step for the compiled schedule."""
    from repro.timing.pipeline.frontend import (
        DRAIN_INTERRUPT,
        F_DRAIN,
        F_FETCH,
        F_HALTED,
        MASK32,
        SERIALIZING,
    )

    backend = fe.backend
    feed = fe.feed
    feed_peek = feed.peek
    # Minimal feed stubs (resource estimation) only implement peek();
    # consume is reached only after peek returns an entry.
    feed_consume = getattr(feed, "consume", None)
    microcode = fe.microcode
    crack_slow = fe._crack
    predictor_sink = fe._predict
    begin_drain = fe.begin_drain
    itlb_lookup = fe.itlb.lookup
    hierarchy = fe.hierarchy
    access_instr = hierarchy.access_instr
    l1_hit_latency = hierarchy.geometry.l1_hit_latency
    line_shift = hierarchy.l1i._line_shift
    fetch_width = fe.fetch_width
    max_nested = fe.max_nested_branches

    fec = fe._counters
    fec_get = fec.get

    fq = fe.fetch_q
    fq_queue = fq._queue
    fq_counters = fq._counters
    fq_get = fq_counters.get
    fq_in_tp = fq.input_throughput
    fq_out_tp = fq.output_throughput
    fq_max = fq.max_transactions
    fq_lat = fq.min_latency

    dq = fe.decode_q
    dq_queue = dq._queue
    dq_counters = dq._counters
    dq_get = dq_counters.get
    dq_in_tp = dq.input_throughput
    dq_max = dq.max_transactions
    dq_lat = dq.min_latency

    rob = backend.rob

    def step(cycle: int) -> None:
        # Connector.tick x2 (budget reset; the schedule's phase-0 tick
        # already ran, but the legacy engine re-ticks inside
        # Frontend.tick, so the fused step does too).
        fq._now = cycle
        fq._pushed_this_cycle = 0
        fq._popped_this_cycle = 0
        dq._now = cycle
        dq._pushed_this_cycle = 0
        dq._popped_this_cycle = 0
        fe.idle_this_cycle = False

        # ---- decode: fetch_q -> crack -> decode_q ----------------------
        if fe._crack_memo_version != microcode.version:
            fe._crack_memo.clear()
            fe._crack_memo_prev.clear()
            fe._crack_memo_version = microcode.version
        memo = fe._crack_memo  # rebound on generation rotation
        n_dec = 0
        for _ in range(fetch_width):
            if dq._pushed_this_cycle >= dq_in_tp or len(dq_queue) >= dq_max:
                fec["decode_stalls"] = fec_get("decode_stalls", 0) + 1
                break
            # fetch_q.pop()
            if (
                fq._popped_this_cycle >= fq_out_tp
                or not fq_queue
                or fq_queue[0][0] > cycle
            ):
                break
            fq._popped_this_cycle += 1
            di = fq_queue.popleft()[1]
            entry = di.entry
            instr = entry.instr
            if instr.spec.iclass == "string":
                key = (id(instr), entry.iterations)
            else:
                key = id(instr)
            cached = memo.get(key)
            if cached is not None and cached[0] is instr:
                uops = cached[1]
            else:
                uops = crack_slow(entry, instr, key)
                memo = fe._crack_memo
            di.uops_template = uops
            # decode_q.push(di) -- can_push verified at loop top
            dq_queue.append((cycle + dq_lat, di))
            dq._pushed_this_cycle += 1
            n_dec += 1
            if dq._trace_log is not None and (
                dq._trigger is None or dq._trigger(cycle, di)
            ):
                if len(dq._trace_log) < dq._trace_limit:
                    dq._trace_log.append((cycle, di))
        if n_dec:
            # One flush per cycle: pops == pushes == decoded here.
            fq_counters["pops"] = fq_get("pops", 0) + n_dec
            dq_counters["pushes"] = dq_get("pushes", 0) + n_dec
            fec["decoded"] = fec_get("decoded", 0) + n_dec

        # ---- fetch: feed -> predict -> fetch_q -------------------------
        mode = fe.mode
        if mode == F_HALTED:
            fec["halt_stall_cycles"] = fec_get("halt_stall_cycles", 0) + 1
            return
        if mode == F_DRAIN:
            fec["drain_cycles"] = fec_get("drain_cycles", 0) + 1
            key = "drain_cycles_" + fe.drain_reason
            fec[key] = fec_get(key, 0) + 1
            if not rob:
                fe.mode = F_FETCH
                fe.expected_pc = fe.resume_pc
                fe.resume_pc = None
            return
        if fe.stall_until > cycle:
            fec["icache_stall_cycles"] = fec_get("icache_stall_cycles", 0) + 1
            return

        fetched = 0
        n_wp = 0
        while fetched < fetch_width:
            if fq._pushed_this_cycle >= fq_in_tp or len(fq_queue) >= fq_max:
                if fetched == 0:
                    fec["fetchq_full_cycles"] = (
                        fec_get("fetchq_full_cycles", 0) + 1
                    )
                break
            entry = feed_peek()
            if entry is None:
                if fetched == 0:
                    fe.idle_this_cycle = True
                break
            expected_pc = fe.expected_pc
            if expected_pc is not None and entry.pc != expected_pc:
                if entry.handler_entry:
                    begin_drain(entry.pc, DRAIN_INTERRUPT)
                    fec["interrupt_redirects"] = (
                        fec_get("interrupt_redirects", 0) + 1
                    )
                else:
                    raise AssertionError(
                        "feed/fetch divergence: expected %#x got %#x (IN %d)"
                        % (expected_pc, entry.pc, entry.in_no)
                    )
                break
            instr = entry.instr
            line = entry.ppc >> line_shift
            if line != fe._current_line:
                if fetched > 0:
                    break
                itlb_lookup(entry.pc)
                latency = access_instr(entry.ppc)
                fe._current_line = line
                if latency > l1_hit_latency:
                    fe.stall_until = cycle + latency
                    fec["icache_miss_stalls"] = (
                        fec_get("icache_miss_stalls", 0) + 1
                    )
                    break
            is_control = instr.spec.is_control
            if is_control and fe.branches_outstanding >= max_nested:
                fec["branch_limit_stalls"] = (
                    fec_get("branch_limit_stalls", 0) + 1
                )
                break

            feed_consume()
            di = DynInstr(entry, cycle, wrong_path=entry.wrong_path)
            if is_control:
                fe.branches_outstanding += 1
                predictor_sink(di)
            else:
                fe.expected_pc = entry.next_pc
            # is_barrier(entry), inlined
            if (
                entry.exception
                or instr.name in SERIALIZING
                or (
                    not is_control
                    and entry.next_pc != (entry.pc + instr.length) & MASK32
                )
            ):
                di.is_barrier = True
                fe.mode = F_HALTED
                fec["barrier_fetches"] = fec_get("barrier_fetches", 0) + 1
            # fetch_q.push(di) -- can_push verified at loop top
            fq_queue.append((cycle + fq_lat, di))
            fq._pushed_this_cycle += 1
            if fq._trace_log is not None and (
                fq._trigger is None or fq._trigger(cycle, di)
            ):
                if len(fq._trace_log) < fq._trace_limit:
                    fq._trace_log.append((cycle, di))
            if entry.wrong_path:
                n_wp += 1
            fetched += 1
            if di.is_barrier or is_control:
                break
        if fetched:
            # One flush per cycle: pushes == fetched here.
            fq_counters["pushes"] = fq_get("pushes", 0) + fetched
            fec["fetched"] = fec_get("fetched", 0) + fetched
            if n_wp:
                fec["fetched_wrong_path"] = (
                    fec_get("fetched_wrong_path", 0) + n_wp
                )

    return step


def bind_backend_tick(be):
    """Fused writeback->commit->issue->dispatch step for the compiled
    schedule."""
    from repro.timing.pipeline.frontend import (
        DRAIN_EXCEPTION,
        DRAIN_SERIALIZE,
    )

    rob = be.rob
    reg_producer = be.reg_producer
    units = be._units
    bec = be._counters
    bec_get = bec.get
    frontend = be.frontend
    begin_drain = frontend.begin_drain
    predictor = frontend.predictor
    predictor_update = predictor.update
    record_outcome = predictor.record_outcome
    hierarchy = be.hierarchy
    access_data = hierarchy.access_data
    resolve_control = be._resolve_control
    issue_load = be._issue_load
    # Minimal feed stubs (resource estimation) only implement peek();
    # commit is reached only once an instruction flows through.
    feed_commit = getattr(be.feed, "commit", None)

    result_bus_width = be.result_bus_width
    commit_width = be.commit_width
    dispatch_width = be.dispatch_width
    rob_entries = be.rob_entries
    rs_entries = be.rs_entries
    lsq_entries = be.lsq_entries

    dq = frontend.decode_q
    dq_queue = dq._queue
    dq_counters = dq._counters
    dq_get = dq_counters.get
    dq_out_tp = dq.output_throughput
    by_seq = operator.attrgetter("seq")

    def step(cycle: int) -> None:
        # ---- writeback -------------------------------------------------
        if be.in_flight:
            finishing = [u for u in be.in_flight if u.done_cycle <= cycle]
            if finishing:
                finishing.sort(key=by_seq)
                overflow = len(finishing) - result_bus_width
                if overflow > 0:
                    for uop in finishing[result_bus_width:]:
                        uop.done_cycle = cycle + 1
                    bec["result_bus_conflicts"] = (
                        bec_get("result_bus_conflicts", 0) + overflow
                    )
                n_wb = 0
                for uop in finishing[:result_bus_width]:
                    if uop.state == U_SQUASHED:
                        continue
                    # in_flight is REBOUND by squash paths reachable via
                    # _resolve_control below: read it fresh.
                    be.in_flight.remove(uop)
                    uop.state = U_DONE
                    uop.done_cycle = cycle
                    n_wb += 1
                    kind = uop.uop.kind
                    if kind == UOP_BRANCH or kind == UOP_JUMP:
                        resolve_control(uop, cycle)
                if n_wb:
                    bec["writebacks"] = bec_get("writebacks", 0) + n_wb
                    # Producers just completed: waiting consumers may
                    # have become dep-ready, so the issue scan must run.
                    be._rs_quiet = False

        # ---- commit ----------------------------------------------------
        committed = 0
        while rob and committed < commit_width:
            uop = rob[0]
            if uop.state != U_DONE or uop.done_cycle >= cycle:
                break
            rob.popleft()
            committed += 1
            be.committed_uops += 1
            be.last_commit_cycle = cycle
            di = uop.instr
            kind = uop.uop.kind
            if kind == UOP_STORE:
                access_data(uop.mem_paddr, is_write=True)
                lsq = be.lsq
                if uop in lsq:
                    lsq.remove(uop)
            elif kind == UOP_LOAD:
                lsq = be.lsq
                if uop in lsq:
                    lsq.remove(uop)
            di.uops_committed += 1
            if uop.is_last:
                # Backend._commit_instruction, inlined.
                entry = di.entry
                be.committed_instructions += 1
                bec["instructions"] = bec_get("instructions", 0) + 1
                if entry.instr.spec.is_control:
                    predictor_update(entry, entry.taken, entry.next_pc)
                    record_outcome(not di.mispredicted)
                    bec["branches"] = bec_get("branches", 0) + 1
                    if di.mispredicted:
                        bec["mispredicts"] = bec_get("mispredicts", 0) + 1
                if entry.exception:
                    bec["exception_redirects"] = (
                        bec_get("exception_redirects", 0) + 1
                    )
                feed_commit(entry.in_no)
                if di.is_barrier:
                    begin_drain(
                        entry.next_pc,
                        DRAIN_EXCEPTION if entry.exception
                        else DRAIN_SERIALIZE,
                    )
                hook = be.on_instr_commit
                if hook is not None:
                    hook(di, cycle)
        if committed:
            bec["commit_cycles"] = bec_get("commit_cycles", 0) + 1

        # ---- issue -----------------------------------------------------
        rs = be.rs  # rebound only by squashes, which cannot happen here
        if rs and not be._rs_quiet:
            issued = None
            n_issues = 0
            n_ready = 0
            for uop in rs:
                # Readiness before unit availability: both checks are
                # pure, so the order cannot change which µops issue, and
                # a stalled consumer (the common case when a load is
                # outstanding) fails on its first dependency instead of
                # scanning the functional units.
                ready = True
                for dep in uop.deps:
                    dep_state = dep.state
                    if dep_state == U_SQUASHED:
                        continue
                    if dep_state != U_DONE or dep.done_cycle > cycle:
                        ready = False
                        break
                if not ready:
                    continue
                n_ready += 1
                template = uop.uop
                meta = template.meta
                if meta is None:
                    meta = _uop_meta(template)
                unit_list = units[meta[0]]
                index = -1
                for i, busy_until in enumerate(unit_list):
                    if busy_until <= cycle:
                        index = i
                        break
                if index < 0:
                    continue
                kind = meta[4]
                if kind == UOP_LOAD:
                    latency = issue_load(uop)
                elif kind == UOP_STORE:
                    latency = 1
                else:
                    latency = meta[6]
                uop.state = U_ISSUED
                uop.deps.clear()
                uop.done_cycle = cycle + latency
                uop.fu = (meta[0], index)
                if meta[5]:
                    unit_list[index] = cycle + latency
                else:
                    unit_list[index] = cycle + 1
                be.in_flight.append(uop)
                if issued is None:
                    issued = [uop]
                else:
                    issued.append(uop)
                n_issues += 1
            if issued is not None:
                for uop in issued:
                    rs.remove(uop)
                bec["issues"] = bec_get("issues", 0) + n_issues
            elif n_ready == 0:
                # Every entry failed the dependency check.  Until a
                # writeback, squash, or dispatch changes readiness the
                # scan would find the same answer -- skip it.  (Unit
                # availability is irrelevant: no uop got that far.)
                be._rs_quiet = True

        # ---- dispatch --------------------------------------------------
        budget = dispatch_width
        n_pops = 0
        while budget > 0:
            dispatching = be._dispatching
            if dispatching is None:
                # decode_q.pop()
                if (
                    dq._popped_this_cycle >= dq_out_tp
                    or not dq_queue
                    or dq_queue[0][0] > cycle
                ):
                    break
                dq._popped_this_cycle += 1
                n_pops += 1
                di = dq_queue.popleft()[1]
                if di.squashed:
                    continue
                if not di.uops_template:
                    continue
                dispatching = (di, 0)
                be._dispatching = dispatching
            di, index = dispatching
            if di.squashed:
                be._dispatching = None
                continue
            template = di.uops_template
            uop = template[index]
            if len(rob) >= rob_entries:
                bec["rob_full_stalls"] = bec_get("rob_full_stalls", 0) + 1
                break
            if len(be.rs) >= rs_entries:
                bec["rs_full_stalls"] = bec_get("rs_full_stalls", 0) + 1
                break
            meta = uop.meta
            if meta is None:
                meta = _uop_meta(uop)
            if meta[1] and len(be.lsq) >= lsq_entries:
                bec["lsq_full_stalls"] = bec_get("lsq_full_stalls", 0) + 1
                break
            be._seq = seq = be._seq + 1
            is_last = index + 1 == len(template)
            dyn = DynUop(seq, di, uop, is_last=is_last)
            deps = dyn.deps
            for reg in meta[2]:
                producer = reg_producer.get(reg)
                if producer is not None and producer.state != U_SQUASHED:
                    deps.append(producer)
            for reg in meta[3]:
                reg_producer[reg] = dyn
            di.last_seq = seq
            rob.append(dyn)
            be.rs.append(dyn)
            if meta[1]:
                be.lsq.append(dyn)
            budget -= 1
            if is_last:
                be._dispatching = None
            else:
                be._dispatching = (di, index + 1)
        if n_pops:
            dq_counters["pops"] = dq_get("pops", 0) + n_pops
        dispatched = dispatch_width - budget
        if dispatched:
            bec["dispatched_uops"] = (
                bec_get("dispatched_uops", 0) + dispatched
            )
            # Fresh uops may be ready immediately (operands already in
            # the register file): rescan next cycle.
            be._rs_quiet = False

        # ---- rename-map reset ------------------------------------------
        if not rob:
            reg_producer.clear()

    return step
