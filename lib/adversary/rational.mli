(** Rational deviations: the k players whose utilities are known and who
    deviate only when it pays. These are the deviation families the
    robustness experiments quantify over (exhaustive deviation search is
    impossible; the paper's lower-bound attacks are all of these shapes). *)

val lie_type :
  Cheaptalk.Compile.plan ->
  me:int ->
  fake_type:int ->
  coin_seed:int ->
  seed:int ->
  (Mpc.Engine.msg, int) Sim.Types.process
(** Follow the protocol honestly but feed in a different type — the
    misreport deviation. *)

val override_action :
  Cheaptalk.Compile.plan ->
  me:int ->
  type_:int ->
  coin_seed:int ->
  seed:int ->
  f:(int -> int) ->
  (Mpc.Engine.msg, int) Sim.Types.process
(** Participate honestly, then play [f recommendation] instead of the
    recommendation — the last-moment defection. *)

val stall_after :
  messages:int -> will:'a option -> ('m, 'a) Sim.Types.process -> ('m, 'a) Sim.Types.process
(** Participate honestly for [messages] deliveries, then go silent,
    leaving [will] with the executor — the deadlock-forcing deviation that
    punishment wills neutralise (Theorem 4.4's mechanics). *)

val pitfall_coalition :
  Cheaptalk.Phased.config ->
  partner:int ->
  me:int ->
  type_:int ->
  seed:int ->
  (Cheaptalk.Phased.msg, int) Sim.Types.process
(** The Section 6.4 coalition attack against the naive two-phase pitfall
    protocol ({!Cheaptalk.Pitfall}). The member and its [partner] (one
    even-index, one odd-index player) exchange their phase-0 leaks over
    the cheap-talk channel, decode the coordination bit b early, and stall
    the whole protocol whenever b = 0 (the punishment avalanche pays 1.1,
    the b = 0 play only 1.0). Expected coalition payoff 1.55 > 1.5: the
    naive mediator strategy is exploitable. Against the minimally
    informative single-phase protocol the same pair learns nothing before
    the (error-correcting, unblockable) final reveal and gains nothing —
    Lemma 6.8's content. *)
