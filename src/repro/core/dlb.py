"""DLB — Dynamic Load Balancing library (LeWI policy).

Reimplementation of the behaviour of BSC's DLB library as evaluated in the
paper: a runtime that is *transparent to the application* (it attaches via
PMPI interception and resizes OpenMP teams; no source changes) and reacts to
load imbalance as it appears:

* when an MPI process enters a blocking MPI call, its cores are **lent** to
  the node-local pool (LeWI: "Lend When Idle");
* hungry teams on the same node (those with more runnable tasks than cores)
  **borrow** from the pool immediately;
* when the blocked process returns from MPI it **reclaims** its cores —
  taken back from the pool or, if already re-assigned, from borrowers at
  task-boundary granularity (the granularity at which the real DLB acts via
  ``omp_set_num_threads``).

DLB only ever moves cores *within a node* (it works over shared memory),
which is why the process-to-node mapping matters for coupled executions.

Usage::

    world = World(engine, cluster, nranks)
    dlb = DLB(world)                    # registers the PMPI hook
    dlb.attach_team(rank, team)         # one team per rank
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict

from ..smpi import World
from .runtime import Team

__all__ = ["DLB", "DLBStats"]


@dataclass
class DLBStats:
    """Counters describing DLB activity during a run."""

    lend_events: int = 0
    borrow_events: int = 0
    reclaim_events: int = 0
    cores_lent_total: int = 0
    cores_borrowed_total: int = 0
    max_team_capacity: int = 0
    rank_death_events: int = 0
    cores_inherited: int = 0      # dead ranks' cores absorbed into pools
    throttle_events: int = 0


class DLB:
    """LeWI dynamic load balancing over a simulated MPI world.

    Parameters
    ----------
    world:
        The MPI job to attach to (the PMPI hook is registered here).
    enabled:
        If False the object records nothing and never moves cores — handy
        for "original vs DLB" experiment sweeps sharing one code path.
    """

    POLICIES = ("lewi", "lewi_half")

    def __init__(self, world: World, enabled: bool = True,
                 policy: str = "lewi"):
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown DLB policy {policy!r}; available: {self.POLICIES}")
        self.world = world
        self.enabled = enabled
        self.policy = policy
        self.teams: Dict[int, Team] = {}
        self._pool: Dict[int, int] = {}          # node -> spare cores
        self._lent: Dict[int, int] = {}          # rank -> cores donated
        self._borrowed: Dict[int, int] = {}      # rank -> extra cores held
        self._in_mpi: Dict[int, bool] = {}
        self._dead: set[int] = set()
        # rank -> (attach order, rank) sort key and rank -> node, so the
        # per-event paths skip the world lookups; per node, the currently
        # hungry ranks and the borrowing ranks, each kept in attach order
        # (the order the scans over all attached teams used)
        self._order: Dict[int, tuple] = {}
        self._team_node: Dict[int, int] = {}
        self._hungry: Dict[int, list] = {}
        self._borrowers: Dict[int, list] = {}
        self.stats = DLBStats()
        if enabled:
            world.hooks.register(self)

    # -- setup ----------------------------------------------------------------
    def attach_team(self, rank: int, team: Team) -> None:
        """Register the thread team of ``rank`` for balancing."""
        self.teams[rank] = team
        self._lent[rank] = 0
        self._borrowed[rank] = 0
        self._in_mpi[rank] = False
        node = self.world.node_of(rank)
        self._order[rank] = (len(self._order), rank)
        self._team_node[rank] = node
        self._hungry.setdefault(node, [])
        self._borrowers.setdefault(node, [])
        self._pool.setdefault(node, 0)
        if self.enabled:
            team.listener = self

    # -- PMPI hook interface ----------------------------------------------------
    def on_mpi_enter(self, rank: int, call: str) -> None:
        """PMPI hook: ``rank`` blocked in MPI — lend its idle cores."""
        if rank not in self.teams or rank in self._dead:
            return
        self._in_mpi[rank] = True
        node = self._team_node[rank]
        _unindex(self._hungry[node], self._order[rank])
        team = self.teams[rank]
        if team.is_running and team.active_workers > 0:
            return  # mid-graph blocking: keep the cores (rare in fork-join)
        own_available = team.base_threads - self._lent[rank]
        if self.policy == "lewi_half" and own_available > 1:
            # conservative variant: keep half of the own cores so reclaim
            # after short MPI calls is instantaneous
            own_lend = (own_available + 1) // 2
        else:
            own_lend = own_available
        give = self._borrowed[rank] + own_lend
        if give <= 0:
            return
        if self._borrowed[rank]:
            self._borrowed[rank] = 0
            _unindex(self._borrowers[node], self._order[rank])
        self._lent[rank] += own_lend
        team.set_capacity(team.base_threads - self._lent[rank])
        self._pool[node] += give
        self.stats.lend_events += 1
        self.stats.cores_lent_total += give
        self._feed(node)

    def on_mpi_exit(self, rank: int, call: str) -> None:
        """PMPI hook: ``rank`` resumed — reclaim its lent cores."""
        if rank not in self.teams or rank in self._dead:
            return
        self._in_mpi[rank] = False
        team = self.teams[rank]
        node = self._team_node[rank]
        if team.is_running and team.wants_cores:
            # mid-graph MPI call: the team is a feed candidate again
            _index(self._hungry[node], self._order[rank])
        need = self._lent[rank]
        if need <= 0:
            return
        taken = min(need, self._pool[node])
        self._pool[node] -= taken
        need -= taken
        borrowers = self._borrowers[node]
        borrowed = self._borrowed
        while need > 0 and borrowers:
            # Pull back from borrowers: largest first, attach order among
            # equals.  Each pull either drains the borrower or settles the
            # debt, so re-picking the largest follows the sorted order.
            entry = max(borrowers, key=lambda e: borrowed[e[1]])
            other = entry[1]
            k = min(need, borrowed[other])
            borrowed[other] -= k
            if not borrowed[other]:
                _unindex(borrowers, entry)
            other_team = self.teams[other]
            other_team.set_capacity(other_team.capacity - k)
            need -= k
        if need > 0:  # pragma: no cover - accounting invariant
            raise RuntimeError(
                f"DLB lost track of {need} cores for rank {rank}")
        self._lent[rank] = 0
        team.set_capacity(team.base_threads)
        self.stats.reclaim_events += 1

    # -- Team listener interface -------------------------------------------------
    def on_team_hungry(self, team: Team) -> None:
        """Team listener: grant pooled cores to a capacity-bound team."""
        rank = team.rank
        if rank not in self.teams or self._in_mpi.get(rank) \
                or rank in self._dead:
            return
        node = self._team_node[rank]
        _index(self._hungry[node], self._order[rank])
        self._grant(node, rank)

    def on_team_idle(self, team: Team) -> None:
        """Team listener: return a finished team's borrowed cores."""
        rank = team.rank
        if rank not in self.teams or rank in self._dead:
            return
        node = self._team_node[rank]
        _unindex(self._hungry[node], self._order[rank])
        extra = self._borrowed[rank]
        if extra <= 0:
            return
        self._borrowed[rank] = 0
        _unindex(self._borrowers[node], self._order[rank])
        team.set_capacity(team.base_threads - self._lent[rank])
        self._pool[node] += extra
        self._feed(node)

    # -- fault reaction (graceful degradation) ------------------------------
    def on_rank_death(self, rank: int) -> None:
        """Absorb a dead rank's cores into its node pool permanently.

        The dead rank's whole current capacity (own cores minus lent plus
        borrowed) goes to the pool, where surviving hungry teams on the node
        pick it up — the run degrades instead of idling the hardware.
        """
        if rank not in self.teams or rank in self._dead:
            return
        self._dead.add(rank)
        team = self.teams[rank]
        node = self._team_node[rank]
        inherited = team.capacity
        if inherited > 0:
            self._pool[node] = self._pool.get(node, 0) + inherited
        # Freeze the dead team's books so reclaim math stays conserved.
        self._borrowed[rank] = 0
        _unindex(self._hungry[node], self._order[rank])
        _unindex(self._borrowers[node], self._order[rank])
        self._lent[rank] = team.base_threads
        team.set_capacity(0)
        self.stats.rank_death_events += 1
        self.stats.cores_inherited += inherited
        if self.enabled:
            self._feed(node)

    def on_rank_throttle(self, rank: int, factor: float) -> None:
        """Record an injected throttle on ``rank`` (cores keep their count;
        the Team's slowdown stretches task durations, and LeWI naturally
        shifts work away because the straggler stays busy longer)."""
        if rank not in self.teams:
            return
        self.teams[rank].set_slowdown(factor)
        self.stats.throttle_events += 1

    # -- internals --------------------------------------------------------
    def _grant(self, node: int, rank: int) -> None:
        """Give pool cores to ``rank``'s team, bounded by its appetite."""
        pool = self._pool.get(node, 0)
        if pool <= 0:
            return
        team = self.teams[rank]
        appetite = team.ready_count
        k = min(pool, appetite)
        if k <= 0:
            return
        self._pool[node] = pool - k
        if not self._borrowed[rank]:
            _index(self._borrowers[node], self._order[rank])
        self._borrowed[rank] += k
        team.set_capacity(team.capacity + k)
        self.stats.borrow_events += 1
        self.stats.cores_borrowed_total += k
        self.stats.max_team_capacity = max(self.stats.max_team_capacity,
                                           team.capacity)

    def _feed(self, node: int) -> None:
        """Distribute pooled cores among currently hungry teams on ``node``.

        Walks the hungry index in attach order instead of every attached
        team.  A team enters the index when it reports itself hungry; one
        found no longer wanting cores leaves it (it re-enters at its next
        report — a team only turns hungry at a dispatch, which reports).
        Granting never changes another team's appetite, so evaluating
        lazily matches a snapshot of every attached team.
        """
        hungry = self._hungry.get(node)
        if not hungry:
            return
        pool = self._pool
        for entry in list(hungry):
            if pool[node] <= 0:
                return
            if self.teams[entry[1]].wants_cores:
                self._grant(node, entry[1])
            else:
                _unindex(hungry, entry)

    # -- introspection -----------------------------------------------------
    def pool_size(self, node: int) -> int:
        """Spare cores currently pooled on ``node``."""
        return self._pool.get(node, 0)

    def borrowed_by(self, rank: int) -> int:
        """Extra cores ``rank``'s team currently holds."""
        return self._borrowed.get(rank, 0)


def _index(entries: list, entry: tuple) -> None:
    """Insert ``entry`` into an attach-ordered index (no duplicates)."""
    i = bisect_left(entries, entry)
    if i == len(entries) or entries[i] != entry:
        entries.insert(i, entry)


def _unindex(entries: list, entry: tuple) -> None:
    """Remove ``entry`` from an attach-ordered index, if present."""
    i = bisect_left(entries, entry)
    if i < len(entries) and entries[i] == entry:
        del entries[i]
