(** Protocol analysis layer: static analysis and schedule checking over
    protocols, runs and circuits.

    Four analyzers (see each module's documentation for the exact checks
    and their soundness/completeness caveats):

    - {!Effect_lint} — effect-discipline linting of traces and process
      wrappers (duplicate moves, sends after halt, non-monotone seq, ...);
    - {!Circuit_lint} — static circuit and staged-reveal linting;
    - {!Thresholds} — the centralised n > 4k+4t / 3k+3t / 3k+4t / 2k+3t
      parameter validator shared with {!Cheaptalk.Compile};
    - {!Mc} — the stateful model checker: dynamic partial-order reduction
      with sleep sets over {!Sim.Runner.Step}, state fingerprinting,
      outcome-confluence, deadlock/starvation verdicts and minimized
      counterexample traces, with {!Sim.Explore} as its naive reference
      backend. It is the one schedule analyzer: `ctmed lint` checks its
      schedule targets (the {!Fixtures}) with it.

    Everything reports through {!Finding}. The CLI front end is
    `ctmed lint`; {!check_run} is the per-run hook the experiment harness
    enables via [Cheaptalk.Verify]'s [?check_runs] parameters. *)

module Finding = Finding
module Thresholds = Thresholds
module Circuit_lint = Circuit_lint
module Effect_lint = Effect_lint
module Mc = Mc
module Fixtures = Fixtures

let check_run ?n (o : 'a Sim.Types.outcome) = Effect_lint.check_trace ?n o
