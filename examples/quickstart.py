#!/usr/bin/env python
"""Quickstart: one Session serves analysis, code generation, execution.

Builds a 2-deep loop with variable dependence distances, analyzes it
through a :class:`repro.Session`, prints the generated code, executes the
transformed schedule (verified against the interpreter reference) and
shows the serving-ready JSON form of the result.

Run with:  python examples/quickstart.py
"""

from repro import (
    Session,
    TransformedLoopNest,
    emit_transformed_source,
    loop_nest,
    simulate_schedule,
)


def main() -> None:
    # A loop whose read access couples both indices: the dependence distances
    # are variable (they grow with i1), which defeats constant-distance
    # methods but is exactly the case the PDM method handles.
    nest = (
        loop_nest("quickstart")
        .loop("i1", -12, 12)
        .loop("i2", -12, 12)
        .statement("A[i1, i2] = A[-i1 - 2, 2*i1 + i2 + 2] + 1.0")
        .build()
    )
    print("Original loop:")
    print(nest)
    print()

    with Session(backend="vectorized", verify="always") as session:
        # 1. Analysis + transformation selection.
        analysis = session.analyze(nest)
        print(analysis.summary())
        print()

        # 2. Code generation.
        transformed = TransformedLoopNest.from_report(analysis.report)
        print("Generated (transformed) code:")
        print(emit_transformed_source(transformed))

        # 3. Parallelism of the schedule, read off the symbolic plan.
        plan = transformed.execution_plan()
        stats = plan.statistics()
        sim = simulate_schedule(plan.select_chunks(), num_processors=8)
        print(f"Schedule: {stats['num_chunks']} independent chunks, "
              f"ideal speedup {stats['ideal_speedup']:.1f}, "
              f"simulated speedup on 8 processors {sim.speedup:.2f}")
        print()

        # 4. Execute with verification against the interpreter reference
        #    (the analysis above is a cache hit inside the same session).
        result = session.run(nest)
        print(f"Executed {result.iterations} iterations in {result.num_chunks} chunks "
              f"(backend {result.backend}), verified: {result.verified}")
        print()
        print("Serving-ready result payload:")
        print(result.to_json(indent=2)[:400] + " ...")


if __name__ == "__main__":
    main()
