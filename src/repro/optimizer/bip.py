"""Binary integer program for schema selection (paper §V, Fig 7 & Fig 10).

The paper formulates schema choice with one variable per (query, column
family) use plus per-column-family selection variables, tied together by
per-query path constraints.  We solve the equivalent per-plan
formulation: one binary variable per enumerated plan, exactly one plan
per query, and plan variables dominated by the selection variables of
every column family they touch.  Updates contribute the ``C'_mn`` terms
of Fig 10 directly on the selection variables, and support queries are
planned iff their column family is selected (an equality constraint on
the plan variables).  After minimising cost, a second solve shrinks
that schema at the same cost (§V searches every candidate; that search
never finished on a template or randgen workload measured).

The time-dependent formulation ("NoSQL Schema Design for
Time-Dependent Workloads") is the same program with a window index and
migration columns; :func:`solve_schedule` builds it from one problem
per window.

Solved with scipy's HiGHS MILP backend (substituting for Gurobi, which
is unavailable offline); the formulation is identical.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro import telemetry
from repro.exceptions import OptimizationError
from repro.explain import solver_ledger
from repro.optimizer.problem import used_keys
from repro.optimizer.results import SchemaRecommendation


#: phase-2 outcome per HiGHS status; any other status is "failed"
_PHASE2_OUTCOMES = {0: "finished", 1: "time-limit"}


class _Program:
    """A fully materialized BIP instance, ready to optimize.

    Built from one problem, it is the paper's BIP.  Built from ``W``
    per-window problems over one shared candidate order plus migration
    terms, it is the time-dependent form of the same program (see
    :func:`solve_schedule`): window ``w`` gets the single program's
    block with its selection columns ``d[w,j]`` at offset ``w*J``, and
    migration columns ``m[t,j]`` follow all ``W*J`` selections.

    The constraint structure depends only on the plan spaces, never on
    the statement weights — weights enter through the cost vector alone.
    :meth:`reweight` therefore re-costs a built program in place, and
    the constraint matrix, integrality vector and variable bounds are
    each materialized once and reused across solves.
    """

    def __init__(self, *problems, indexes=None, migration=None):
        #: the single-schema path's problem (the first window's)
        self.problem = problems[0]
        self.problems = problems
        self.indexes = (self.problem.indexes if indexes is None
                        else list(indexes))
        self.index_column = {index.key: column
                             for column, index in enumerate(self.indexes)}
        #: ``(MigrationCostModel, initial keys)``, or None
        self.migration = migration
        #: selection columns ``d[w,j]``, the only integral ones
        self.binaries = len(problems) * len(self.indexes)
        self.columns = self.binaries
        self.costs = [0.0] * self.columns
        if migration is not None:
            model, _initial = migration
            creation = [model.index_cost(index) for index in self.indexes]
            self.costs.extend(creation * len(problems))
            self.columns += self.binaries
        #: ``(members, plans, columns)`` per query signature class: the
        #: class's queries, their shared plan list and its choose-one
        #: row's plan columns
        self.query_classes = []
        #: ``(members, gates)`` per update signature class, with
        #: ``gates`` the class's entries of :attr:`gates`
        self.update_classes = []
        #: ``(selection column, plan columns, plans)`` per support gate
        self.gates = []
        #: statement signature classes the program solves: query plus
        #: update classes (statements sharing their plan objects)
        self.statement_classes = 0
        #: how the last optimize() ended its schema-minimising phase:
        #: "finished", "time-limit", "failed" or "skipped"
        self.phase2_outcome = None
        self._entries = []  # (row, column, value)
        self._lower = []
        self._upper = []
        #: lazily materialized solver inputs, reused across solves
        self._base_constraint = None
        self._entry_arrays = None
        self._integrality = None
        self._unit_bounds = None
        #: per choose-one row and gate, the bitmask of column families
        #: each plan column reads (see :meth:`_phase1_bounds`)
        self._phase1_structure = None
        #: lazily built index arrays for vectorized reweighting
        self._reweight_arrays = None
        #: wall-clock seconds of the last optimize(), split so the
        #: advisor can attribute solving vs result extraction honestly
        self.solve_seconds = 0.0
        self.extract_seconds = 0.0
        self._build()
        active = telemetry.current()
        if active.enabled and migration is None:
            active.gauge("bip.columns", self.columns)
            active.gauge("bip.binary_columns", self.binaries)
            active.gauge("bip.rows", len(self._lower))
            active.gauge("bip.nonzeros", len(self._entries))
            active.gauge("bip.statement_classes", self.statement_classes)

    # -- construction -----------------------------------------------------

    def _new_row(self, lower, upper):
        self._lower.append(lower)
        self._upper.append(upper)
        return len(self._lower) - 1

    def _new_column(self, cost):
        self.costs.append(cost)
        column = self.columns
        self.columns += 1
        return column

    def _build(self):
        """The migration rows, each window's block, then one storage
        row per window with a space limit."""
        if self.migration is not None:
            self._build_migrations()
        for window, problem in enumerate(self.problems):
            self._build_window(problem, window * len(self.indexes))
        for window, problem in enumerate(self.problems):
            if problem.space_limit is None:
                continue
            space = self._new_row(-np.inf, float(problem.space_limit))
            offset = window * len(self.indexes)
            for column, index in enumerate(self.indexes):
                self._entries.append((space, offset + column, index.size))

    def _build_window(self, problem, offset):
        """One block of rows per signature class.

        Statements whose plan lists hold the same plan objects have the
        same plan space and costs, and the program is linear in their
        weights: one choose-one row (or one set of support gates) with
        the summed weights has the same optimum as one per statement.
        The first statement of a class builds the rows and columns; each
        member adds its weighted costs to them and joins the class's
        member list.  ``offset`` locates the window's selection columns.
        """
        query_classes = {}
        for query, plans in problem.query_plans.items():
            key = tuple(map(id, plans))
            entry = query_classes.get(key)
            if entry is None:
                choose_one = self._new_row(1.0, 1.0)
                links = {}
                columns = []
                for plan in plans:
                    column = self._new_column(0.0)
                    columns.append(column)
                    self._entries.append((choose_one, column, 1.0))
                    self._link_plan(column, plan, links, offset)
                entry = query_classes[key] = ([], plans, columns)
                self.query_classes.append(entry)
            entry[0].append(query)
        for members, plans, columns in query_classes.values():
            # summed in member order, as reweight() sums
            weight = sum(map(problem.weight, members))
            for plan, column in zip(plans, columns):
                self.costs[column] += weight * plan.cost
        update_classes = {}
        for update, update_plans in problem.update_plans.items():
            if not update_plans:
                continue
            weight = problem.weight(update)
            key = tuple(map(id, update_plans))
            entry = update_classes.get(key)
            if entry is None:
                entry = update_classes[key] = (
                    [], self._build_gates(update_plans, offset))
                self.update_classes.append(entry)
            entry[0].append(update)
            for update_plan in update_plans:
                selection = offset + self.index_column[
                    update_plan.index.key]
                self.costs[selection] += weight * update_plan.update_cost
        for members, gates in update_classes.values():
            weight = sum(map(problem.weight, members))
            for _selection, columns, plans in gates:
                for plan, column in zip(plans, columns):
                    self.costs[column] += weight * plan.cost
        self.statement_classes += len(query_classes) + len(update_classes)

    def _build_gates(self, update_plans, offset):
        """Support gates and plan columns of one update class; returns
        its entries of :attr:`gates`."""
        gates = []
        for update_plan in update_plans:
            selection = offset + self.index_column[update_plan.index.key]
            grouped = update_plan.support_plans_by_query
            for plans in grouped.values():
                # one support plan iff the column family is selected
                gate = self._new_row(0.0, 0.0)
                self._entries.append((gate, selection, -1.0))
                links = {}
                columns = []
                for plan in plans:
                    column = self._new_column(0.0)
                    columns.append(column)
                    self._entries.append((gate, column, 1.0))
                    self._link_plan(column, plan, links, offset)
                gates.append((selection, columns, plans))
        self.gates.extend(gates)
        return gates

    def _link_plan(self, column, plan, links, offset):
        """Plan usable only when every column family it touches exists.

        Links are aggregated per (statement, column family): since each
        statement selects exactly one plan, ``sum of plans using j <= d_j``
        is valid and gives a tighter LP relaxation than per-plan rows.
        """
        for index in plan.indexes:
            row = links.get(index.key)
            if row is None:
                row = self._new_row(-np.inf, 0.0)
                links[index.key] = row
                self._entries.append(
                    (row, offset + self.index_column[index.key], -1.0))
            self._entries.append((row, column, 1.0))

    def _build_migrations(self):
        """``d[t,j] - d[t-1,j] - m[t,j] <= 0`` per transition and
        candidate; ``d[-1,j]`` is 1 exactly for the initial schema."""
        _model, initial = self.migration
        count = len(self.indexes)
        for transition in range(len(self.problems)):
            offset = transition * count
            for column, index in enumerate(self.indexes):
                if transition == 0:
                    held = index.key in initial
                    row = self._new_row(-np.inf, 1.0 if held else 0.0)
                else:
                    row = self._new_row(-np.inf, 0.0)
                    self._entries.append(
                        (row, offset - count + column, -1.0))
                self._entries.append((row, offset + column, 1.0))
                self._entries.append(
                    (row, self.binaries + offset + column, -1.0))

    # -- re-costing -----------------------------------------------------------

    def _reweight_cache(self):
        """Index arrays mapping statements to their cost-vector slots.

        Built once per program: a list of distinct statements, the
        statement positions of each signature class's members, and for
        each cost contribution an integer column array, a base-cost
        array and an owner array — the class for plan columns, the
        statement for per-column-family maintenance terms.  A weight
        change then reduces to gathers and scatter-adds over these
        arrays instead of a Python loop over every plan column.  Plan
        base costs are stable for the program's lifetime — the advisor
        rebuilds programs whenever the cost model re-costs.
        """
        if self._reweight_arrays is None:
            statements = []
            positions = {}

            def position(statement):
                slot = positions.get(statement.label)
                if slot is None:
                    slot = positions[statement.label] = len(statements)
                    statements.append(statement)
                return slot

            members = []  # (class, statement position) per member
            plan_data = []

            def add_class(group, plans, columns):
                slot = len(classes)
                classes.append(group)
                members.extend((slot, position(statement))
                               for statement in group)
                plan_data.extend((column, plan.cost, slot)
                                 for plan, column in zip(plans, columns))

            classes = []
            for group, plans, columns in self.query_classes:
                add_class(group, plans, columns)
            for group, gates in self.update_classes:
                add_class(group,
                          [plan for *_, plans in gates for plan in plans],
                          [column for _, columns, _ in gates
                           for column in columns])
            maintenance_data = [
                (self.index_column[update_plan.index.key],
                 update_plan.update_cost, position(update))
                for update, update_plans
                in self.problem.update_plans.items()
                for update_plan in update_plans]
            members = np.array(members, dtype=np.intp).reshape(-1, 2)
            self._reweight_arrays = (
                statements, len(classes), members[:, 0], members[:, 1],
                [(data[:, 0].astype(np.intp), data[:, 1],
                  data[:, 2].astype(np.intp))
                 for data in (np.array(plan_data).reshape(-1, 3),
                              np.array(maintenance_data).reshape(-1, 3))])
        return self._reweight_arrays

    def reweight(self, weights):
        """Re-cost the program for new statement weights, in place.

        Choose-one rows, support gates, plan links and the space row are
        all weight-independent, so only the cost vector needs rebuilding
        — the expensive construction work survives a weight change; the
        rebuild itself is vectorized (see :meth:`_reweight_cache`).
        """
        problem = self.problem
        problem.set_weights(weights)
        statements, classes, member_class, member_position, \
            (plans, maintenance) = self._reweight_cache()
        by_statement = np.array([problem.weight(statement)
                                 for statement in statements])
        # members of a class share columns: (Σ weight) * cost
        by_class = np.zeros(classes)
        np.add.at(by_class, member_class, by_statement[member_position])
        costs = np.zeros(self.columns)
        for (columns, base_costs, owners), weight in (
                (plans, by_class), (maintenance, by_statement)):
            if len(columns):
                np.add.at(costs, columns, weight[owners] * base_costs)
        self.costs = costs.tolist()

    # -- solving --------------------------------------------------------------

    def _matrix(self, extra_entries=(), extra_bounds=()):
        if self._entry_arrays is None:
            self._entry_arrays = (
                np.asarray([e[0] for e in self._entries]),
                np.asarray([e[1] for e in self._entries]),
                np.asarray([e[2] for e in self._entries], dtype=float),
            )
        rows, columns, values = self._entry_arrays
        if not extra_entries and not extra_bounds:
            if self._base_constraint is None:
                matrix = csr_matrix(
                    (values, (rows, columns)),
                    shape=(len(self._lower), self.columns))
                self._base_constraint = LinearConstraint(
                    matrix, np.asarray(self._lower, dtype=float),
                    np.asarray(self._upper, dtype=float))
            return self._base_constraint
        rows = np.concatenate([rows, [e[0] for e in extra_entries]])
        columns = np.concatenate([columns,
                                  [e[1] for e in extra_entries]])
        values = np.concatenate([values, [e[2] for e in extra_entries]])
        lower = list(self._lower) + [b[0] for b in extra_bounds]
        upper = list(self._upper) + [b[1] for b in extra_bounds]
        matrix = csr_matrix((values, (rows, columns)),
                            shape=(len(lower), self.columns))
        return LinearConstraint(matrix, np.asarray(lower),
                                np.asarray(upper))

    def _solve(self, objective, constraints, options=None, bounds=None,
               integrality=None, check=True):
        # Only the column-family selection variables need integrality:
        # for any 0/1 selection, every plan whose column families are
        # all selected is feasible on its own (the aggregated links
        # allow x_p = 1), so a linear objective over the plan variables
        # attains its optimum at a pure plan — fractional plan mixes
        # can never beat the cheapest feasible plan.  Declaring the
        # plan variables continuous cuts the binaries from thousands to
        # the number of candidates.  ``integrality`` overrides (the LP
        # gate passes all-zeros for the relaxation).  ``check`` raises
        # unless the result carries a solution.
        if integrality is None:
            if self._integrality is None:
                self._integrality = np.zeros(self.columns)
                self._integrality[:self.binaries] = 1
            integrality = self._integrality
        if bounds is None:
            if self._unit_bounds is None:
                self._unit_bounds = Bounds(0, 1)
            bounds = self._unit_bounds
        objective = np.asarray(objective, dtype=float)
        # columns fixed at zero are left out: scipy's HiGHS wrapper
        # spends Python time per column, and the solution gets them
        # back as zeros
        upper = np.broadcast_to(bounds.ub, (self.columns,))
        live = np.flatnonzero(upper > 0.0)
        sliced = 0 < len(live) < self.columns
        if sliced:
            lower = np.broadcast_to(bounds.lb, (self.columns,))
            objective = objective[live]
            constraints = [LinearConstraint(
                csr_matrix(constraint.A)[:, live], constraint.lb,
                constraint.ub) for constraint in constraints]
            integrality = np.asarray(integrality)[live]
            bounds = Bounds(lower[live], upper[live])
        result = milp(c=objective, constraints=constraints,
                      integrality=integrality, bounds=bounds,
                      options=options or {})
        if sliced and result.x is not None:
            x = np.zeros(self.columns)
            x[live] = result.x
            result.x = x
        acceptable = result.success or (result.status == 1
                                        and result.x is not None)
        if check and not acceptable:
            raise OptimizationError(
                f"BIP solve failed: {result.message}")
        return result

    def _phase1_rows(self):
        """Per choose-one row and support gate, the gate's selection
        column (None for a choose-one row), its plan columns, the
        bitmask of the selection columns each plan reads and the union
        of those masks.  Weight independent, so built once per
        program."""
        if self._phase1_structure is None:
            rows = [(None, columns, plans)
                    for _members, plans, columns in self.query_classes]
            rows.extend(self.gates)
            structure = []
            for selection, columns, plans in rows:
                masks = []
                union = 0
                for plan in plans:
                    bits = 0
                    for index in plan.indexes:
                        bits |= 1 << self.index_column[index.key]
                    masks.append(bits)
                    union |= bits
                structure.append((selection, columns, masks, union))
            self._phase1_structure = structure
        return self._phase1_structure

    def _free_mask(self, costs):
        """Bitmask of the *free* column families: those whose
        selection costs nothing and each of whose support gates has a
        zero-cost plan over free column families — the greatest such
        set.  Holding all of them together adds nothing to any
        solution's cost."""
        binaries = len(self.indexes)
        free = 0
        for column in np.flatnonzero(costs[:binaries] == 0.0):
            free |= 1 << int(column)
        gates = [(selection, [bits for column, bits in zip(columns, masks)
                              if costs[column] == 0.0])
                 for selection, columns, masks, _union
                 in self._phase1_rows() if selection is not None]
        changed = True
        while changed:
            changed = False
            for selection, cheap in gates:
                if free >> selection & 1 and not any(
                        bits & ~free == 0 for bits in cheap):
                    free &= ~(1 << selection)
                    changed = True
        return free

    def _phase1_bounds(self):
        """Variable fixing for the cost-minimising solve, or None.

        Holding every free column family (:meth:`_free_mask`) costs
        nothing, so some optimum holds them all.  There, a plan column
        is never needed when a sibling in its choose-one row or gate
        costs no more and reads, beyond the plan's own column families,
        only free ones: shifting the plan's weight to that sibling
        keeps every row satisfied and costs no more.  Each such column
        is fixed to zero; siblings are ranked by (cost, column), and
        since the relation is transitive the least-ranked sibling of
        every fixed column stays unfixed.  On read-only mixes every
        column family is free and each query keeps only its cheapest
        plans.  Only the single-schema program without a space limit
        qualifies: a space limit charges the free column families, and
        migration costs charge the windowed program's.
        """
        if self.migration is not None or len(self.problems) > 1 \
                or self.problem.space_limit is not None:
            return None
        costs = np.asarray(self.costs, dtype=float)
        free = self._free_mask(costs)
        if not free:
            return None
        fixed = np.zeros(self.columns, dtype=bool)
        for _selection, columns, masks, union in self._phase1_rows():
            if not union & free:
                # dominance pruning already dropped every plan a
                # cheaper sibling with a subset of its column families
                # beats
                continue
            ranked = sorted(zip(costs[columns].tolist(), columns, masks))
            kept = []
            for _cost, column, bits in ranked:
                needed = bits & ~free
                if any(other & ~needed == 0 for other in kept):
                    fixed[column] = True
                else:
                    kept.append(needed)
        active = telemetry.current()
        if active.enabled:
            active.gauge("bip.phase1_fixed_columns", int(fixed.sum()))
        if not fixed.any():
            return None
        upper = np.ones(self.columns)
        upper[fixed] = 0.0
        return Bounds(0, upper)

    def _phase2_bounds(self, selection, best_cost, tolerance):
        """Variable fixing for the schema-minimisation solve.

        A selection column phase 1 left at 0 (False in ``selection``)
        is fixed unless no update maintains its column family: phase 1's
        solution stays feasible, so phase 2 can only shrink its schema.
        Any solution within the phase-2 cost cap pays at least the
        cheapest plan of every query class (their sum ``lower_bound``),
        plus — for each active support gate and in full for a pure plan
        choice — the cost of whichever plan column carries weight.  A
        plan column whose cost exceeds its group minimum by more than
        ``best_cost + tolerance - lower_bound`` therefore appears in no
        pure solution under the cap, and since the best cost achievable
        for a fixed schema is always attained by pure plan choices,
        fixing such columns to zero preserves a phase-2 optimum.  This
        prunes most plan columns on read-mostly workloads, where the
        first rule fixes nothing.
        """
        costs = np.asarray(self.costs, dtype=float)
        binaries = len(self.indexes)
        fixed = np.zeros(self.columns, dtype=bool)
        fixed[:binaries] = ~selection & (costs[:binaries] != 0.0)
        if not (costs < 0.0).any():  # else the lower bound is void
            # selection columns keep margin -inf: the group minima below
            # are computed ignoring which column families exist
            margins = np.full(self.columns, -np.inf)
            lower_bound = 0.0
            for _members, _plans, group in self.query_classes:
                group_costs = costs[group]
                group_min = float(group_costs.min())
                lower_bound += group_min
                margins[group] = group_costs - group_min
            for _selection, gate, _plans in self.gates:
                # support plans cost nothing when their gate is closed,
                # so their margin is the full column cost
                margins[gate] = costs[gate]
            fixed |= margins > best_cost + tolerance - lower_bound
        active = telemetry.current()
        if active.enabled:
            active.gauge("bip.phase2_fixed_columns", int(fixed.sum()))
            active.gauge("bip.phase2_free_columns",
                         int(self.columns - fixed.sum()))
        upper = np.ones(self.columns)
        upper[fixed] = 0.0
        return Bounds(0, upper)

    def _warm_bound(self, keys):
        """Incumbent cost bound from a previous schema's keys, or None.

        Evaluating the schema as a full solution of *this* program
        yields a feasible objective value; solutions costing more can
        be cut off without losing any optimum.  scipy's ``milp`` has no
        MIP-start API, so this incumbent-bound cut is how a previous
        solution warm-starts the solve.  None (no cut) when the warm
        schema is infeasible for the current problem.
        """
        evaluation = self.problem.evaluate(keys)
        active = telemetry.current()
        if evaluation is None:
            if active.enabled:
                active.count("bip.warm_start_infeasible")
            return None
        incumbent = evaluation[0]
        if active.enabled:
            active.count("bip.warm_starts_applied")
            active.gauge("bip.warm_start_bound", incumbent)
        return incumbent

    def _cost_cut(self, incumbent):
        """The base constraints plus ``cost @ x <= incumbent`` as one
        row: the cost of a known feasible solution bounds the optimum."""
        # slack absorbs float noise only: any true optimum still
        # satisfies cost <= incumbent < incumbent + slack
        bound = incumbent + 1e-7 * (1.0 + abs(incumbent))
        row = len(self._lower)
        cut = [(row, column, value)
               for column, value in enumerate(self.costs)
               if value != 0.0]
        return self._matrix(extra_entries=cut,
                            extra_bounds=[(-np.inf, bound)])

    def _solve_gated(self, constraint, options, cost_vector, gate_gap,
                     warm_keys, fixing):
        """LP-relaxation gate for large programs (lazy activation).

        Solves the LP relaxation first, then a restricted MILP with
        every column family the relaxation left at zero fixed out
        (plus the warm-start incumbent's, so its bound stays
        attainable).  Feasibility is preserved by construction: the
        aggregated link rows force every LP-supported plan's column
        families fractionally open, so all plans carrying LP weight
        survive the restriction and every choose-one row keeps a
        candidate.  The restricted optimum is accepted when it is
        within ``gate_gap`` of the LP lower bound — a certificate that
        no excluded column family can improve the solution by more
        than the gap — and otherwise the full MILP runs with the
        restricted solution as an incumbent cost cut; if that solve
        stops without a solution, the restricted one stands.  Every
        solve keeps the columns ``fixing`` (:meth:`_phase1_bounds`, or
        None) fixes: they keep the optimum, so the LP bound stays valid.
        """
        active = telemetry.current()
        if active.enabled:
            active.count("bip.lp_gate_used")
        binaries = len(self.indexes)
        relaxed = self._solve(self.costs, [constraint], options,
                              bounds=fixing,
                              integrality=np.zeros(self.columns))
        lp_bound = float(cost_vector @ relaxed.x)
        support = relaxed.x[:binaries] > 1e-9
        for key in warm_keys:
            column = self.index_column.get(key)
            if column is not None:
                support[column] = True
        upper = (np.ones(self.columns) if fixing is None
                 else np.array(fixing.ub, dtype=float))
        upper[:binaries][~support] = 0.0
        restricted = self._solve(self.costs, [constraint], options,
                                 bounds=Bounds(0, upper))
        best_cost = float(cost_vector @ restricted.x)
        gap = (best_cost - lp_bound) / max(1.0, abs(best_cost))
        if active.enabled:
            active.gauge("bip.lp_gate_active_columns",
                         int(support.sum()))
            active.gauge("bip.lp_gate_inactive_columns",
                         int(binaries - support.sum()))
            active.gauge("bip.lp_bound", lp_bound)
            active.gauge("bip.lp_gate_gap", gap)
        if gap <= gate_gap:
            if active.enabled:
                active.count("bip.lp_gate_accepted")
            return restricted, best_cost
        # the restriction lost too much: full MILP, with the restricted
        # optimum as an incumbent cost cut (it is a feasible solution
        # of the full program, so no optimum is cut off)
        if active.enabled:
            active.count("bip.lp_gate_fallbacks")
        result = self._solve(self.costs, [self._cost_cut(best_cost)],
                             options, bounds=fixing, check=False)
        if result.x is None:
            # stopped (say by the time limit) before finding a solution
            # under the cut
            return restricted, best_cost
        return result, float(cost_vector @ result.x)

    def optimize(self, minimize_schema_size=True, mip_rel_gap=1e-4,
                 time_limit=120.0, warm_start=None,
                 lp_gate_columns=None, lp_gate_gap=0.01):
        """Two-phase solve: min cost, then min #column families.

        ``mip_rel_gap`` and ``time_limit`` bound the branch-and-bound
        effort; with a time limit the incumbent solution is returned
        (still feasible, within the reported gap of optimal).  The
        first solve runs with the plan columns :meth:`_phase1_bounds`
        fixes, which keeps its optimum.  The second solve minimises the
        column-family count at the first's cost plus its gap, over the
        first's selection plus the column families no update maintains
        (:meth:`_phase2_bounds`); its solution is used only when that
        solve finishes, otherwise the first's is kept
        (``phase2_outcome`` says which).
        ``warm_start`` optionally supplies a previous solution whose
        cost bounds the first solve from above (see :meth:`_warm_bound`
        for the exact semantics — the optimum is never changed, though
        equal-cost ties may resolve differently than an unassisted
        solve).

        ``lp_gate_columns`` arms the LP-relaxation gate: when the
        program has at least that many binary columns, the first solve
        runs as LP relaxation + restricted MILP with a gap certificate
        (see :meth:`_solve_gated`), falling back to the full MILP when
        the certificate fails.  The result is then optimal within
        ``lp_gate_gap`` rather than ``mip_rel_gap``.
        """
        active = telemetry.current()
        solve_started = time.perf_counter()
        with active.span("bip_solving"):
            options = {"mip_rel_gap": mip_rel_gap,
                       "time_limit": time_limit}
            cost_vector = np.asarray(self.costs)
            warm_keys = ()
            bound = None
            if warm_start is not None:
                if hasattr(warm_start, "indexes"):
                    warm_start = warm_start.indexes
                warm_keys = {getattr(index, "key", index)
                             for index in warm_start}
                bound = self._warm_bound(warm_keys)
            if bound is None:
                constraint = self._matrix()
            else:
                constraint = self._cost_cut(bound)
            gated = (lp_gate_columns is not None
                     and len(self.indexes) >= lp_gate_columns)
            fixing = self._phase1_bounds()
            if gated:
                result, best_cost = self._solve_gated(
                    constraint, options, cost_vector, lp_gate_gap,
                    warm_keys, fixing)
            else:
                result = self._solve(self.costs, [constraint], options,
                                     bounds=fixing)
                best_cost = float(cost_vector @ result.x)
            if minimize_schema_size:
                phase1_seconds = time.perf_counter() - solve_started
                # pin the cost at the incumbent — slack proportional to
                # the MIP gap, so the second solve is never knife-edge —
                # and minimise the number of selected column families
                tolerance = (mip_rel_gap * abs(best_cost)
                             + 1e-7 * (1.0 + abs(best_cost)))
                binaries = len(self.indexes)
                selection = result.x[:binaries] > 0.5
                row = len(self._lower)
                entries = [(row, column, value)
                           for column, value in enumerate(self.costs)
                           if value != 0.0]
                constraint = self._matrix(
                    extra_entries=entries,
                    extra_bounds=[(-np.inf, best_cost + tolerance)])
                objective = np.zeros(self.columns)
                objective[:binaries] = 1.0
                # the second solve only shrinks the schema at equal
                # cost, so it must never dominate the runtime: its
                # budget matches the phase-1 solve (floor 1s, cap 30s)
                # and its gap is loose (the objective is a small integer
                # count); on failure or timeout the phase-1 solution is
                # kept and _extract prunes unused column families
                phase2_options = {
                    "mip_rel_gap": max(mip_rel_gap, 0.02),
                    "time_limit": min(time_limit, 30.0,
                                      max(1.0, phase1_seconds)),
                }
                bounds = self._phase2_bounds(selection, best_cost,
                                             tolerance)
                phase2_started = time.perf_counter()
                # only a finished phase 2 replaces the phase-1 solution:
                # the incumbent a time limit leaves depends on how far
                # the search got, so keeping it would make the schema
                # depend on machine speed
                smallest = self._solve(objective, [constraint],
                                       phase2_options, bounds=bounds,
                                       check=False)
                if smallest.status == 0:
                    result = smallest
                self.phase2_outcome = _PHASE2_OUTCOMES.get(
                    smallest.status, "failed")
                if active.enabled:
                    active.gauge("bip.phase2_time_limit",
                                 phase2_options["time_limit"])
                    active.gauge("bip.phase2_seconds",
                                 time.perf_counter() - phase2_started)
            else:
                self.phase2_outcome = "skipped"
            if active.enabled:
                active.gauge("bip.phase2_outcome", self.phase2_outcome)
            extract_started = time.perf_counter()
            self.solve_seconds = extract_started - solve_started
        with active.span("recommendation"):
            recommendation = self._extract(result)
        self.extract_seconds = time.perf_counter() - extract_started
        if active.enabled:
            active.observe("bip.solve_seconds", self.solve_seconds,
                           buckets=telemetry.TIME_BUCKETS)
            active.observe("bip.extract_seconds", self.extract_seconds,
                           buckets=telemetry.TIME_BUCKETS)
        return recommendation

    def _extract(self, result):
        """The recommendation of a solution: its schema and, per
        statement and per support query, the cheapest plan on it.

        Plan variables are continuous and may split across
        alternatives, and a class's columns carry its summed weight, so
        the solver's plan weights name no plan per statement.  Every
        plan the solution uses is feasible on the selected column
        families, so the cheapest feasible one (ties broken by
        signature) costs no more than the solver's choice.  Chosen
        plans leave bound to their own statement (see
        :meth:`~repro.planner.plans.QueryPlan.bind`).  The reported
        cost is the evaluated cost of the schema kept, not the solver's
        objective: phase 2 may swap the schema for one up to its cost
        tolerance dearer.
        """
        selected = result.x[:len(self.indexes)] > 0.5
        selected_keys = {self.indexes[column].key
                         for column in range(len(self.indexes))
                         if selected[column]}
        evaluation = self.problem.evaluate(selected_keys)
        if evaluation is None:
            raise OptimizationError(
                "BIP solution leaves a statement without a feasible plan")
        # selected column families no chosen plan reads are dropped:
        # without phase 2 the solver may hold cost-free ones, and no
        # constraint binds a column family nothing uses.  The chosen
        # plans read only kept ones, so they stay the cheapest; only
        # the dropped ones' maintenance leaves the cost.
        _cost, query_plans, maintained = evaluation
        chosen_keys = used_keys(query_plans, maintained) & selected_keys
        if chosen_keys != selected_keys:
            evaluation = self.problem.evaluate(chosen_keys)
        total_cost, query_plans, maintained = evaluation
        indexes = [index for index in self.indexes
                   if index.key in chosen_keys]
        update_plans = {update: [update_plan.bind(update)
                                 for update_plan in plans]
                        for update, plans in maintained.items()}
        weights = {label: weight
                   for label, weight in self.problem.weights.items()}
        recommendation = SchemaRecommendation(
            indexes, {query: plan.bind(query)
                      for query, plan in query_plans.items()},
            update_plans, weights, total_cost)
        # the decision ledger: per-candidate selection status and, per
        # statement, the chosen plan next to the best rejected one
        recommendation.ledger = solver_ledger(
            self.problem, chosen_keys, selected_keys, query_plans)
        return recommendation


def solve_schedule(problems, indexes, migration_model, initial=(),
                   mip_rel_gap=1e-4, time_limit=120.0, incumbent=None):
    """Solve the windowed program; returns one key set per window.

    ``problems`` holds one :class:`OptimizationProblem` per window, over
    that window's active statements and absolute weights; ``indexes``
    fixes the shared candidate order.  Creating a column family in
    window ``t`` that window ``t-1`` (or, for ``t = 0``, the
    ``initial`` keys) did not hold costs ``migration_model``'s
    ``index_cost``; drops are free.  Only the selections need
    integrality: migration columns sit at their integral lower bound
    ``max(0, d[t,j] - d[t-1,j])`` because their costs are non-negative.

    ``incumbent`` optionally passes a known feasible schedule cost (a
    baseline schedule is a feasible point with the same objective), an
    upper bound that never cuts off an optimum.
    """
    program = _Program(*problems, indexes=indexes,
                       migration=(migration_model, frozenset(initial)))
    if incumbent is None:
        constraint = program._matrix()
    else:
        constraint = program._cost_cut(incumbent)
    result = program._solve(program.costs, [constraint],
                            {"mip_rel_gap": mip_rel_gap,
                             "time_limit": time_limit})
    active = telemetry.current()
    if active.enabled:
        active.gauge("windows.bip_columns", program.columns)
        active.gauge("windows.bip_binary_columns", program.binaries)
        active.gauge("windows.bip_rows", len(program._lower))
        active.gauge("windows.bip_objective",
                     float(np.asarray(program.costs) @ result.x))
    count = len(program.indexes)
    return [{index.key for column, index in enumerate(program.indexes)
             if result.x[window * count + column] > 0.5}
            for window in range(len(problems))]


class BIPOptimizer:
    """Facade exposing BIP construction and solving as separate stages,
    so the advisor can report the paper's Fig 13 runtime breakdown."""

    def __init__(self, minimize_schema_size=True, mip_rel_gap=1e-4,
                 time_limit=120.0, lp_gate_columns=2048,
                 lp_gate_gap=0.01):
        self.minimize_schema_size = minimize_schema_size
        self.mip_rel_gap = mip_rel_gap
        self.time_limit = time_limit
        #: binary-column count from which the first solve runs as an
        #: LP relaxation + restricted MILP with a gap certificate
        #: (None disables the gate); the default is far above every
        #: demo workload, so small programs keep the exact path
        self.lp_gate_columns = lp_gate_columns
        #: accepted optimality gap versus the LP lower bound
        self.lp_gate_gap = lp_gate_gap

    def prepare(self, problem):
        """Construct the program (the 'BIP construction' stage)."""
        return _Program(problem)

    def reweight(self, program, weights):
        """Re-cost a prepared program for new statement weights.

        The constraint structure is weight-independent, so this replaces
        only the cost vector — re-solving after a weight change skips
        construction entirely.
        """
        program.reweight(weights)
        return program

    def optimize(self, program, warm_start=None):
        """Solve a prepared program (the 'BIP solving' stage).

        ``warm_start`` may be a previous
        :class:`~repro.optimizer.results.SchemaRecommendation` (or any
        iterable of indexes / index keys); its cost becomes an
        incumbent upper bound on the first solve.
        """
        return program.optimize(self.minimize_schema_size,
                                mip_rel_gap=self.mip_rel_gap,
                                time_limit=self.time_limit,
                                warm_start=warm_start,
                                lp_gate_columns=self.lp_gate_columns,
                                lp_gate_gap=self.lp_gate_gap)

    def solve(self, problem, warm_start=None):
        """Construct and solve in one call."""
        return self.optimize(self.prepare(problem),
                             warm_start=warm_start)
