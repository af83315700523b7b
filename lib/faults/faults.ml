type kind = Duplicate | Corrupt | Delay | Crash_restart

type config = {
  dup_rate : float;
  corrupt_rate : float;
  delay_rate : float;
  crash_rate : float;
  delay_decisions : int;
  crash_window : int;
}

let none =
  {
    dup_rate = 0.0;
    corrupt_rate = 0.0;
    delay_rate = 0.0;
    crash_rate = 0.0;
    delay_decisions = 1000;
    crash_window = 50;
  }

let check_rate name r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Faults: %s=%g must be within [0,1]" name r)

let check_window name w =
  if w < 1 then invalid_arg (Printf.sprintf "Faults: %s=%d must be >= 1" name w)

let validate c =
  check_rate "dup" c.dup_rate;
  check_rate "corrupt" c.corrupt_rate;
  check_rate "delay" c.delay_rate;
  check_rate "crash" c.crash_rate;
  check_window "delay_decisions" c.delay_decisions;
  check_window "crash_window" c.crash_window;
  c

let make ?(dup = 0.0) ?(corrupt = 0.0) ?(delay = 0.0) ?(crash = 0.0)
    ?(delay_decisions = 1000) ?(crash_window = 50) () =
  validate
    {
      dup_rate = dup;
      corrupt_rate = corrupt;
      delay_rate = delay;
      crash_rate = crash;
      delay_decisions;
      crash_window;
    }

let of_string s =
  let parse_entry acc entry =
    match String.split_on_char '=' (String.trim entry) with
    | [ "" ] -> acc
    | [ key; value ] -> (
        let fl () =
          match float_of_string_opt value with
          | Some f -> f
          | None -> invalid_arg (Printf.sprintf "Faults.of_string: %s=%s: not a number" key value)
        in
        let int () =
          match int_of_string_opt value with
          | Some i -> i
          | None ->
              invalid_arg (Printf.sprintf "Faults.of_string: %s=%s: not an integer" key value)
        in
        match String.trim key with
        | "dup" -> { acc with dup_rate = fl () }
        | "corrupt" -> { acc with corrupt_rate = fl () }
        | "delay" -> { acc with delay_rate = fl () }
        | "crash" -> { acc with crash_rate = fl () }
        | "delay_decisions" -> { acc with delay_decisions = int () }
        | "crash_window" -> { acc with crash_window = int () }
        | key ->
            invalid_arg
              (Printf.sprintf
                 "Faults.of_string: unknown key %S (expected \
                  dup/corrupt/delay/crash/delay_decisions/crash_window)"
                 key))
    | _ -> invalid_arg (Printf.sprintf "Faults.of_string: malformed entry %S" entry)
  in
  validate (List.fold_left parse_entry none (String.split_on_char ',' s))

let to_string c =
  Printf.sprintf "dup=%g,corrupt=%g,delay=%g,crash=%g,delay_decisions=%d,crash_window=%d"
    c.dup_rate c.corrupt_rate c.delay_rate c.crash_rate c.delay_decisions c.crash_window

module Plan = struct
  type t = {
    config : config;
    message_fault : src:int -> dst:int -> seq:int -> kind option;
    crash_window : pid:int -> (int * int) option;
  }

  let config t = t.config

  (* Uniform draw keyed by the message's channel coordinates: the verdict
     must be a pure function of (seed, key) so that delivery order, domain
     count and chunking cannot change which faults a run sees. A fresh
     Random.State per query gives well-mixed bits at an acceptable cost
     (plans are only consulted when fault injection is on). *)
  let draw ~salt ~seed key = Random.State.make (Array.append [| salt; seed |] key)

  let make ~seed config =
    let config = validate config in
    let message_fault ~src ~dst ~seq =
      if
        config.dup_rate = 0.0 && config.corrupt_rate = 0.0 && config.delay_rate = 0.0
      then None
      else begin
        let st = draw ~salt:0xFA17 ~seed [| src; dst; seq |] in
        let u = Random.State.float st 1.0 in
        (* disjoint sub-intervals of [0,1): at most one kind per message *)
        if u < config.dup_rate then Some Duplicate
        else if u < config.dup_rate +. config.corrupt_rate then Some Corrupt
        else if u < config.dup_rate +. config.corrupt_rate +. config.delay_rate then
          Some Delay
        else None
      end
    in
    let crash_window ~pid =
      if config.crash_rate = 0.0 then None
      else begin
        let st = draw ~salt:0xC4A5 ~seed [| pid |] in
        if Random.State.float st 1.0 < config.crash_rate then
          (* start late enough that every process got its start signal *)
          Some (2 + Random.State.int st 64, config.crash_window)
        else None
      end
    in
    { config; message_fault; crash_window }

  let custom ?(config = none) ?(crash = fun ~pid:_ -> None) message_fault =
    { config; message_fault; crash_window = crash }

  let message_fault t = t.message_fault
  let crash_window t = t.crash_window
end
