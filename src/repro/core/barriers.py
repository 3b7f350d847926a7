"""Barrier scheduling and merging for SHIFT instructions (Section 5.3).

Every SHIFT group costs two intra-CTA barriers per block: one before
(operand blocks visible in shared memory) and one after (shifted values
ready).  After Shift Rebalancing moves shifts onto operands that are
ready early, independent shifts can be *merged*: scheduled at one point
and sharing one barrier pair.  The greedy merger follows the paper:

* a SHIFT joins the preceding group if its operand is already defined
  at the group leader's position, and
* the group is below the ``merge_size`` limit, and
* the group's distinct stored operands still fit in shared memory
  (storing only unshifted values — the redundant-copy removal of
  Section 5.3 — so two shifts of the same bitstream count once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..ir.instructions import Instr, Op, SkipGuard, Stmt, WhileLoop
from ..ir.program import Program

DEFAULT_MERGE_SIZE = 8


@dataclass
class ShiftGroupInfo:
    """Placement of one SHIFT instruction in the barrier schedule."""

    group_id: int
    is_leader: bool
    #: number of distinct operand blocks the group stores to shared
    #: memory (meaningful on the leader, where the stores happen)
    stored_vars: int = 1
    #: the SHIFT itself (the plan re-keys on it after unpickling)
    instr: Optional[Instr] = None


@dataclass
class BarrierPlan:
    """SHIFT-to-group assignment for one program."""

    merge_size: int = DEFAULT_MERGE_SIZE
    _by_instr: Dict[int, ShiftGroupInfo] = field(default_factory=dict)
    group_count: int = 0
    shift_count: int = 0
    #: worst-case distinct stored operands of any one group
    max_group_stores: int = 0

    def lookup(self, instr: Instr) -> Optional[ShiftGroupInfo]:
        return self._by_instr.get(id(instr))

    def __setstate__(self, state):
        """``id()`` keys do not survive pickling: a process worker gets
        new SHIFT objects (the ones its unpickled program holds), so
        re-key on them."""
        self.__dict__.update(state)
        self._by_instr = {id(info.instr): info
                          for info in self._by_instr.values()}

    def smem_bytes_needed(self, block_bytes: int) -> int:
        return self.max_group_stores * block_bytes

    def sync_points(self) -> int:
        """Barrier sites from SHIFT groups (Table 6's #Sync is twice
        this per block)."""
        return self.group_count


def plan_barriers(program: Program,
                  merge_size: int = DEFAULT_MERGE_SIZE,
                  smem_capacity_bytes: int = 96 * 1024,
                  block_bytes: int = 2048) -> BarrierPlan:
    """Compute the greedy merge schedule for ``program``."""
    if merge_size < 1:
        raise ValueError("merge_size must be >= 1")
    plan = BarrierPlan(merge_size=merge_size)
    store_budget = max(1, smem_capacity_bytes // block_bytes)

    def visit(stmts: Sequence[Stmt]) -> None:
        _plan_region(stmts, plan, merge_size, store_budget)
        for stmt in stmts:
            if isinstance(stmt, WhileLoop):
                visit(stmt.body)

    visit(program.statements)
    return plan


@dataclass
class _Group:
    group_id: int
    leader: Instr
    leader_index: int
    members: List[Instr] = field(default_factory=list)
    stored: Set[str] = field(default_factory=set)


def _plan_region(stmts: Sequence[Stmt], plan: BarrierPlan,
                 merge_size: int, store_budget: int) -> None:
    """Greedy merging over one straight-line stretch.  Control-flow
    statements end the current group (a loop body executes a varying
    number of times, so its shifts cannot share a barrier with code
    outside it)."""
    last_def: Dict[str, int] = {}
    group: Optional[_Group] = None

    def finish_group() -> None:
        nonlocal group
        if group is None:
            return
        stores = len(group.stored)
        plan.max_group_stores = max(plan.max_group_stores, stores)
        for member in [group.leader] + group.members:
            info = plan._by_instr[id(member)]
            info.stored_vars = stores
        group = None

    for index, stmt in enumerate(stmts):
        if isinstance(stmt, (WhileLoop, SkipGuard)):
            finish_group()
            continue
        instr = stmt
        if instr.op is Op.SHIFT:
            plan.shift_count += 1
            operand = instr.args[0]
            operand_def = last_def.get(operand, -1)
            can_merge = (
                group is not None
                and len(group.members) + 1 < merge_size
                and operand_def < group.leader_index
                and (operand in group.stored
                     or len(group.stored) < store_budget))
            if can_merge:
                group.members.append(instr)
                group.stored.add(operand)
                plan._by_instr[id(instr)] = ShiftGroupInfo(
                    group.group_id, is_leader=False, instr=instr)
            else:
                finish_group()
                group = _Group(plan.group_count, instr, index,
                               stored={operand})
                plan._by_instr[id(instr)] = ShiftGroupInfo(
                    group.group_id, is_leader=True, instr=instr)
                plan.group_count += 1
        last_def[instr.dest] = index
    finish_group()
