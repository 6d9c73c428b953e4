"""The functional rewrite of iterative CTEs (paper §IV, Algorithm 1).

``compile_statement`` turns a SELECT containing iterative (and recursive)
CTEs into one plan *program*: a step sequence over existing operators plus
the two new ones, rename and loop.  The structure for a single iterative
CTE follows Algorithm 1 exactly:

1.  materialize R0 into cteTable;
2.  initialize loop operator;
3.  materialize Ri into workingTable;
4.  if Ri has no WHERE clause: rename workingTable to cteTable
    (with the rename optimization off, the engine instead merges and
    physically copies — the Fig. 8 baseline);
5.  else: merge via ``SELECT CASE WHEN w.key IS NOT NULL THEN w.col ELSE
    m.col END ... FROM cteTable m LEFT JOIN workingTable w`` and rename
    the merge result to cteTable;
6.  update the loop operator; jump back to 3 while it says continue;
7.  return Qf.

The two iterative-specific optimizer rules hook in here: predicate push
down from Qf into R0 (§V-B) and common-result extraction from Ri (§V-A).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from ..errors import PlanError
from ..execution import ExecutionStats, SessionOptions
from ..plan import (
    CteBinding,
    Field,
    LogicalFilter,
    LogicalOp,
    PlanContext,
    build_statement,
    rename_outputs,
)
from ..plan.program import (
    CountUpdatesStep,
    DeltaCaptureStep,
    DeltaFusedStep,
    DeltaSpec,
    DropStep,
    DuplicateCheckStep,
    IncrementLoopStep,
    InitLoopStep,
    LoopSpec,
    LoopStep,
    MaterializeStep,
    Program,
    RenameStep,
    ReturnStep,
    SnapshotStep,
    Step,
    CopyStep,
)
from ..rewrite import (
    analyze_iterative_delta,
    conjoin,
    extract_common_results,
    optimize_plan,
    pushable_into_iterative,
    split_conjuncts,
)
from ..sql import ast
from ..types import SqlType, common_type
from .recursive import emit_recursive_cte


@dataclass
class CompilerState:
    """Shared state while compiling one statement into a program."""

    context: PlanContext
    options: SessionOptions
    stats: ExecutionStats
    estimator: object = None  # repro.stats.CardinalityEstimator or None
    tracer: object = None     # repro.obs.Tracer or None (untraced)
    steps: list[Step] = dataclass_field(default_factory=list)
    loops: dict[int, LoopSpec] = dataclass_field(default_factory=dict)
    temp_results: list[str] = dataclass_field(default_factory=list)
    loop_counter: itertools.count = dataclass_field(
        default_factory=lambda: itertools.count())
    common_counter: itertools.count = dataclass_field(
        default_factory=lambda: itertools.count())


def compile_statement(stmt: ast.SelectLike, context: PlanContext,
                      options: SessionOptions,
                      stats: ExecutionStats,
                      estimator=None, tracer=None) -> Program:
    """Compile a SELECT (possibly with iterative/recursive CTEs) into a
    runnable program ending in a ReturnStep.

    ``tracer`` (a :class:`repro.obs.Tracer`) makes plan building and the
    rewrite pipeline emit phase spans; ``None`` compiles untraced.
    """
    context.tracer = tracer if tracer is not None \
        and getattr(tracer, "enabled", False) else None
    state = CompilerState(context=context, options=options, stats=stats,
                          estimator=estimator, tracer=context.tracer)

    final = copy.copy(stmt)
    with_clause = final.with_clause
    final.with_clause = None

    if with_clause is not None:
        for cte in with_clause.ctes:
            if isinstance(cte, ast.IterativeCte):
                _emit_iterative(cte, state, final)
            elif cte.recursive:
                emit_recursive_cte(cte, state)
            else:
                state.context.inline_ctes[cte.name.lower()] = (
                    cte.query, cte.columns)

    final_plan = build_statement(final, state.context)
    final_plan = optimize_plan(final_plan, options, state.estimator,
                               state.tracer, context.catalog)
    state.steps.append(ReturnStep(final_plan))
    if state.temp_results:
        state.steps.append(DropStep(list(state.temp_results)))
    program = Program(state.steps, state.loops)
    if options.enable_plan_verifier:
        from ..verify import verify_program
        report = verify_program(program, "compile", context.catalog)
        program.verifier_verdict = report.verdict()
    return program


# ---------------------------------------------------------------------------
# Iterative CTE emission (Algorithm 1)
# ---------------------------------------------------------------------------


def _emit_iterative(cte: ast.IterativeCte, state: CompilerState,
                    final: ast.SelectLike) -> None:
    context = state.context
    options = state.options
    cte_name = cte.name.lower()
    suffix = context.fresh_name("it").lstrip("_")
    cte_result = f"__cte_{cte_name}_{suffix}"
    working = f"__work_{cte_name}_{suffix}"
    merge_result = f"__merge_{cte_name}_{suffix}"
    previous = f"__prev_{cte_name}_{suffix}"

    # -- the non-iterative part -------------------------------------------
    init_raw = build_statement(cte.init, context.child())
    columns = [c.lower() for c in (cte.columns or init_raw.field_names())]
    if len(columns) != len(init_raw.fields):
        raise PlanError(
            f"iterative CTE {cte.name!r} declares {len(columns)} columns "
            f"but its non-iterative part produces {len(init_raw.fields)}")
    key_column = columns[0]

    # -- type unification across R0 and Ri --------------------------------
    types = [f.sql_type for f in init_raw.fields]
    step_plan: Optional[LogicalOp] = None
    for _ in range(4):
        binding = CteBinding(cte_result, tuple(zip(columns, types)))
        step_context = context.child()
        step_context.cte_bindings[cte_name] = binding
        step_plan = build_statement(cte.step, step_context)
        if len(step_plan.fields) != len(columns):
            raise PlanError(
                f"the iterative part of {cte.name!r} produces "
                f"{len(step_plan.fields)} columns, expected {len(columns)}")
        unified = [common_type(t, f.sql_type)
                   for t, f in zip(types, step_plan.fields)]
        unified = [SqlType.FLOAT if t is SqlType.NULL else t
                   for t in unified]
        if unified == types:
            break
        types = unified
    assert step_plan is not None
    binding = CteBinding(cte_result, tuple(zip(columns, types)))

    # -- §V-B: push final-query predicates into R0 -------------------------
    init_plan = rename_outputs(init_raw, columns, cte_name)
    if options.enable_predicate_pushdown:
        pushed = _push_final_predicates(final, cte, columns)
        if pushed is not None:
            init_plan = LogicalFilter(init_plan, pushed)
            state.stats.predicate_pushdowns += 1
    init_plan = optimize_plan(init_plan, options, state.estimator,
                              state.tracer, context.catalog)

    step_plan = optimize_plan(step_plan, options, state.estimator,
                              state.tracer, context.catalog)

    # -- §V-A: hoist loop-invariant join blocks out of Ri ------------------
    common_steps: list[MaterializeStep] = []
    if options.enable_common_results:
        step_plan, blocks = extract_common_results(
            step_plan, {cte_result}, state.common_counter)
        for block in blocks:
            common_steps.append(MaterializeStep(
                block.result_name, block.plan, block.column_names,
                comment="loop-invariant common result (§V-A)"))
            state.temp_results.append(block.result_name)
            state.stats.common_results_built += 1

    # -- assemble the step program -----------------------------------------
    has_where = isinstance(cte.step, ast.Select) \
        and cte.step.where is not None
    loop_id = next(state.loop_counter)
    needs_update_count = cte.termination.kind in (
        ast.TerminationKind.UPDATES, ast.TerminationKind.DELTA)
    spec = LoopSpec(loop_id=loop_id, termination=cte.termination,
                    cte_result=cte_result, cte_name=cte_name,
                    columns=columns,
                    movement=("rename" if options.enable_rename
                              else "copy"),
                    has_where=has_where)
    state.loops[loop_id] = spec

    # -- semi-naive delta rewrite (when provably per-key independent) ------
    fused = None
    if state.options.enable_delta_iteration:
        safety = analyze_iterative_delta(cte, columns, context.catalog)
        if safety is not None:
            partition = f"__part_{cte_name}_{suffix}"
            spec.delta = DeltaSpec(
                loop_id=loop_id, cte_name=cte_name, cte_result=cte_result,
                working=working, partition=partition,
                key_column=key_column, columns=columns,
                merge_by_key=has_where,
                influences=list(safety.influences),
                guard_keyset=safety.guard_keyset)
            fused = DeltaFusedStep(
                spec.delta,
                _build_delta_step_plan(state, cte, cte_name, binding,
                                       partition, columns, types),
                columns, dup_check=has_where)

    steps = state.steps
    steps.append(MaterializeStep(
        cte_result, init_plan, columns,
        comment=f"non-iterative part of {cte.name}"))
    steps.extend(common_steps)
    steps.append(InitLoopStep(spec))

    loop_start = len(steps)
    if fused is not None:
        steps.append(fused)
        # Delta capture always needs the previous iteration to diff
        # against, even when the termination condition does not.
        fused.jump_full = len(steps)
        steps.append(SnapshotStep(cte_result, previous))
    elif needs_update_count:
        steps.append(SnapshotStep(cte_result, previous))
    steps.append(MaterializeStep(
        working, step_plan, columns,
        comment=f"iterative part of {cte.name}"))

    if not has_where:
        # Full-dataset update.
        if options.enable_rename:
            steps.append(RenameStep(working, cte_result))
        else:
            # Fig. 8 baseline: identify updated rows via the merge and
            # physically move the data back into the main table.
            merge_plan = _build_merge_plan(
                state, cte_name, cte_result, working, columns, types,
                key_column)
            steps.append(MaterializeStep(
                merge_result, merge_plan, columns,
                comment="identify updated rows (baseline)"))
            steps.append(CopyStep(merge_result, cte_result))
    else:
        # Partial update: merge workingTable into cteTable by key.
        steps.append(DuplicateCheckStep(working, key_column))
        merge_plan = _build_merge_plan(
            state, cte_name, cte_result, working, columns, types,
            key_column)
        steps.append(MaterializeStep(
            merge_result, merge_plan, columns,
            comment=f"merge updates into {cte.name}"))
        state.stats.merge_steps += 1
        if options.enable_rename:
            steps.append(RenameStep(merge_result, cte_result))
        else:
            steps.append(CopyStep(merge_result, cte_result))

    if needs_update_count:
        steps.append(CountUpdatesStep(previous, cte_result, key_column,
                                      loop_id))
    if fused is not None:
        steps.append(DeltaCaptureStep(spec.delta, previous))
        fused.jump_to = len(steps)
        fused.jump_done = len(steps)
    steps.append(IncrementLoopStep(loop_id))
    steps.append(LoopStep(loop_id, loop_start))

    state.temp_results.extend([cte_result, working])
    if needs_update_count or fused is not None:
        state.temp_results.append(previous)
    if fused is not None:
        state.temp_results.append(spec.delta.partition)

    # Later parts of the statement (including Qf) see the CTE as a
    # materialized result.
    context.cte_bindings[cte_name] = binding


def _build_delta_step_plan(state: CompilerState, cte: ast.IterativeCte,
                           cte_name: str, binding: CteBinding,
                           partition: str, columns: list[str],
                           types: list) -> LogicalOp:
    """The iterative part with its *anchor* scan rebound to the affected
    partition.

    The leftmost FROM leaf (the row being evolved — the safety analyzer
    guaranteed it is the CTE) is replaced by a scan of the partition
    result; every other CTE reference still reads the full CTE table, so
    joins against it see all keys.  Common-result extraction is skipped:
    the partition changes every iteration and the loop-invariant build
    sides are already cached by the kernel cache.
    """
    delta_select = copy.deepcopy(cte.step)
    source_name = f"__delta_src_{cte_name}"

    def rebind(leaf: ast.TableRef) -> ast.TableRef:
        return ast.TableRef(source_name, alias=leaf.binding_name)

    node = delta_select.from_clause
    if isinstance(node, ast.TableRef):
        delta_select.from_clause = rebind(node)
    else:
        parent = node
        while isinstance(parent.left, ast.Join):
            parent = parent.left
        parent.left = rebind(parent.left)

    delta_context = state.context.child()
    delta_context.cte_bindings[cte_name] = binding
    delta_context.cte_bindings[source_name] = CteBinding(
        partition, tuple(zip(columns, types)))
    plan = build_statement(delta_select, delta_context)
    return optimize_plan(plan, state.options, state.estimator,
                        state.tracer, state.context.catalog)


def _build_merge_plan(state: CompilerState, cte_name: str, cte_result: str,
                      working: str, columns: list[str],
                      types: list[SqlType],
                      key_column: str) -> LogicalOp:
    """Algorithm 1 line 8: the CASE/LEFT JOIN merge select."""
    main_name = f"__{cte_name}_merge_main"
    work_name = f"__{cte_name}_merge_work"
    sub_context = state.context.child()
    sub_context.cte_bindings[main_name] = CteBinding(
        cte_result, tuple(zip(columns, types)))
    sub_context.cte_bindings[work_name] = CteBinding(
        working, tuple(zip(columns, types)))

    items = []
    for column in columns:
        if column == key_column:
            items.append(ast.SelectItem(ast.ColumnRef(column, "m"), column))
            continue
        case = ast.Case(
            whens=((ast.IsNull(ast.ColumnRef(key_column, "w"),
                               negated=True),
                    ast.ColumnRef(column, "w")),),
            default=ast.ColumnRef(column, "m"))
        items.append(ast.SelectItem(case, column))

    select = ast.Select(
        items=items,
        from_clause=ast.Join(
            ast.JoinKind.LEFT,
            ast.TableRef(main_name, alias="m"),
            ast.TableRef(work_name, alias="w"),
            ast.BinaryOp(ast.BinaryOperator.EQ,
                         ast.ColumnRef(key_column, "m"),
                         ast.ColumnRef(key_column, "w"))))
    return build_statement(select, sub_context)


# ---------------------------------------------------------------------------
# §V-B: final-query predicate extraction
# ---------------------------------------------------------------------------


def _push_final_predicates(final: ast.SelectLike, cte: ast.IterativeCte,
                           columns: list[str]) -> Optional[ast.Expr]:
    """Find WHERE conjuncts of Qf that may move into R0, rebased onto the
    CTE's output columns.  Mutates nothing; the original predicate stays in
    Qf (it is cheap and keeps Qf's semantics independent of the rewrite).
    """
    if not isinstance(final, ast.Select) or final.where is None:
        return None
    binding_names = _cte_binding_names(final.from_clause, cte.name)
    if not binding_names:
        return None

    column_set = {c.lower() for c in columns}
    pushable: list[ast.Expr] = []
    for conjunct in split_conjuncts(final.where):
        refs = [node for node in conjunct.walk()
                if isinstance(node, ast.ColumnRef)]
        if not refs:
            continue
        if not all(_ref_targets_cte(ref, binding_names, column_set)
                   for ref in refs):
            continue
        if not pushable_into_iterative(cte, columns, conjunct):
            continue
        rebased = _rebase_onto_cte(conjunct, cte.name.lower())
        pushable.append(rebased)
    return conjoin(pushable)


def _cte_binding_names(relation: Optional[ast.Relation],
                       cte_name: str) -> set[str]:
    """Aliases under which Qf's FROM references the CTE."""
    names: set[str] = set()
    key = cte_name.lower()

    def visit(node: Optional[ast.Relation]) -> None:
        if node is None:
            return
        if isinstance(node, ast.TableRef):
            if node.name.lower() == key:
                names.add(node.binding_name.lower())
        elif isinstance(node, ast.Join):
            visit(node.left)
            visit(node.right)

    visit(relation)
    return names


def _ref_targets_cte(ref: ast.ColumnRef, binding_names: set[str],
                     columns: set[str]) -> bool:
    if ref.table is not None and ref.table.lower() not in binding_names:
        return False
    return ref.name.lower() in columns


def _rebase_onto_cte(expr: ast.Expr, cte_name: str) -> ast.Expr:
    from ..rewrite.expr_utils import map_column_refs

    def mapping(ref: ast.ColumnRef) -> ast.Expr:
        return ast.ColumnRef(ref.name.lower(), cte_name)

    return map_column_refs(expr, mapping)
