type severity = Error | Warning

type t = {
  analyzer : string;
  severity : severity;
  subject : string;
  detail : string;
}

let v ?(severity = Error) ~analyzer ~subject detail = { analyzer; severity; subject; detail }
let warning ~analyzer ~subject detail = v ~severity:Warning ~analyzer ~subject detail
let is_error f = f.severity = Error
let errors fs = List.filter is_error fs

let count fs =
  List.fold_left
    (fun (e, w) f -> if is_error f then (e + 1, w) else (e, w + 1))
    (0, 0) fs

let severity_label = function Error -> "error" | Warning -> "warning"

let pp fmt f =
  Format.fprintf fmt "%s [%s] %s: %s" (severity_label f.severity) f.analyzer f.subject
    f.detail

let to_string f = Format.asprintf "%a" pp f
