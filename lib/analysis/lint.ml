(* Source-level lock-discipline lint over the library code.

   Five rules, all driven by structured comments so the discipline is
   declared where it applies (see ANALYSIS.md for the full semantics):

   - [raise-under-lock] (R1): a [Mutex.lock] must be followed within a few
     lines by a [Fun.protect] that owns the matching unlock — otherwise an
     exception between lock and unlock leaks the mutex. (Trylock-style
     node locks are exempt: their release paths are branch-explicit.)
   - [guarded-by] (R2): a field annotated [(* lint: guarded-by <lock> *)]
     may only be accessed in scopes showing lock evidence: an
     acquire-family call, a [Mutex.lock], a [with_<lock>] wrapper, or an
     explicit [(* lint: holds <lock> *)] / [(* lint: quiescent *)]
     annotation.
   - [raw-primitive] (R3): files marked [(* lint: prim-functorized *)]
     must reach atomics/mutexes/pauses through their [PRIM] parameter —
     literal [Stdlib.Atomic], [Stdlib.Mutex] or [Domain.cpu_relax] tokens
     mean a code path escapes the checker.
   - [blocking-under-lock] (R5): no blocking call ([Eventcount.wait],
     [Unix.sleepf], [extract_blocking], ...) between a lock acquisition
     statement and its release — a sleeper holding a mutex stalls every
     thread that needs it, and under the model scheduler it deadlocks.
   - [unbounded-spin] (R7): a loop that calls [cpu_relax] must either be
     bounded by a counter or escalate to [Backoff], a yield, a sleep or a
     park. A pure spin convoys as soon as the domains outnumber the
     cores: the waiter burns the timeslice the holder needs. Deliberate
     spins carry [(* lint: allow unbounded-spin <reason> *)].

   Findings on lines carrying [(* lint: allow <rule> *)] are suppressed.
   The engine is purely textual (line-based with indentation-scoped
   function blocks) over {!Source}-masked text — comments and string
   literals cannot trip code-token rules. It trades soundness for zero
   false positives on this codebase's idioms. *)

type finding = Source.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let pp_finding = Source.pp_finding

open Source

let suppressed line rule = contains line ("lint: allow " ^ rule)

(* A "scope" is a top-level-ish definition: a [let] at the shallowest
   indentation seen since the last [struct]/[sig] opener. Nested lets stay
   inside their enclosing scope. *)
type scope = { start : int; stop : int }

(* Indentation alone misattributes a [let] that merely continues the
   previous expression — most commonly a [match] arm whose body re-indents
   shallower than the enclosing binding. Two textual cues catch those: the
   line itself is a [let ... in] expression, or the previous non-blank
   line ends in a token that cannot close a definition. *)
let continuation_tokens =
  [ "->"; "="; "("; "begin"; "then"; "else"; "in"; ";"; "@@"; "|>"; "&&"; "||"; "fun" ]

let expr_level_let masked i =
  let t = String.trim masked.(i) in
  contains (" " ^ t ^ " ") " in "
  ||
  let rec prev j =
    if j < 0 then None
    else if is_blank masked.(j) then prev (j - 1)
    else Some (String.trim masked.(j))
  in
  match prev (i - 1) with
  | None -> false
  | Some p -> List.exists (fun tok -> ends_with tok p) continuation_tokens

let scopes_of masked =
  let n = Array.length masked in
  let scopes = ref [] in
  let cur_start = ref (-1) in
  let cur_indent = ref max_int in
  let close stop =
    if !cur_start >= 0 then scopes := { start = !cur_start; stop } :: !scopes;
    cur_start := -1
  in
  for i = 0 to n - 1 do
    let line = masked.(i) in
    let t = String.trim line in
    if contains line "= struct" || contains line "= sig" || starts_with "module " t then begin
      (* entering a new module body resets the scope indentation level *)
      if !cur_start >= 0 then close (i - 1);
      cur_indent := max_int
    end
    else if starts_with "let " t || starts_with "let[" t || starts_with "and " t then begin
      let ind = indent_of line in
      if ind <= !cur_indent && not (expr_level_let masked i) then begin
        if !cur_start >= 0 then close (i - 1);
        cur_start := i;
        cur_indent := ind
      end
    end
  done;
  close (n - 1);
  List.rev !scopes

(* {2 R1: raise-under-lock} *)

let mutex_lock_re = Str.regexp "Mutex\\.lock\\b"
let fun_protect_re = Str.regexp "Fun\\.protect"
let matches re line = try ignore (Str.search_forward re line 0); true with Not_found -> false

let check_raise_under_lock src =
  let n = Array.length src.masked in
  let findings = ref [] in
  for i = 0 to n - 1 do
    let line = src.masked.(i) in
    let trimmed = String.trim line in
    let statement_position =
      (* Only statement-position acquisitions ([Mutex.lock m;]) are
         flagged; value bindings like [let acquire = P.Mutex.lock] are
         aliases, not critical-section entries. *)
      String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = ';'
    in
    if matches mutex_lock_re line && statement_position
       && not (suppressed src.raw.(i) "raise-under-lock")
    then begin
      (* Fun.protect must appear on this line or within the next 3
         non-blank lines — the lock-then-protect idiom. *)
      let ok = ref false in
      let seen = ref 0 in
      let j = ref i in
      while (not !ok) && !seen <= 3 && !j < n do
        let l = src.masked.(!j) in
        if not (is_blank l) then begin
          if matches fun_protect_re l then ok := true;
          incr seen
        end;
        incr j
      done;
      if not !ok then
        findings :=
          {
            file = src.file;
            line = i + 1;
            rule = "raise-under-lock";
            message =
              "Mutex.lock without a Fun.protect release nearby; an exception here leaks the \
               lock";
          }
          :: !findings
    end
  done;
  !findings

(* {2 R2: guarded-by} *)

let guarded_by_re = Str.regexp "(\\* lint: guarded-by \\([A-Za-z0-9_']+\\) \\*)"
let field_name_re = Str.regexp "\\(mutable +\\)?\\([a-z_][A-Za-z0-9_']*\\) *:"

(* Collect [(field, lock)] pairs declared by guarded-by annotations. *)
let guarded_fields src =
  let acc = ref [] in
  Array.iter
    (fun line ->
      match Str.search_forward guarded_by_re line 0 with
      | _ ->
          let lock = Str.matched_group 1 line in
          (match Str.search_forward field_name_re line 0 with
          | _ -> acc := (Str.matched_group 2 line, lock) :: !acc
          | exception Not_found -> ())
      | exception Not_found -> ())
    src.raw;
  !acc

let scope_text lines scope =
  let b = Buffer.create 256 in
  for i = scope.start to scope.stop do
    Buffer.add_string b lines.(i);
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* The scope shows evidence of holding [lock]. Evidence is read from the
   raw text — [lint: holds] / [lint: quiescent] are comments — and the
   line just above the scope's first line is included so annotations
   placed above the [let] count. *)
let holds_evidence src scope lock =
  let above = if scope.start > 0 then src.raw.(scope.start - 1) ^ "\n" else "" in
  let text = above ^ scope_text src.raw scope in
  contains text "acquire"
  || contains text "Mutex.lock"
  || contains text ("with_" ^ lock)
  || contains text ("lint: holds " ^ lock)
  || contains text "lint: quiescent"

let check_guarded_by src =
  let fields = guarded_fields src in
  if fields = [] then []
  else begin
    let scopes = scopes_of src.masked in
    let findings = ref [] in
    List.iter
      (fun (field, lock) ->
        (* The leading \b stops [Atomic.set] matching via its lowercase
           tail ([tomic.set]); receivers must be whole lowercase idents. *)
        let access_re =
          Str.regexp ("\\b[a-z_][A-Za-z0-9_']*\\." ^ Str.quote field ^ "\\b")
        in
        List.iter
          (fun scope ->
            if not (holds_evidence src scope lock) then
              for i = scope.start to scope.stop do
                (* Accesses are matched on the masked line: a string
                   literal like ["zmsq.handles"] is data, not an access. *)
                if matches access_re src.masked.(i)
                   && not (suppressed src.raw.(i) "guarded-by")
                then
                  findings :=
                    {
                      file = src.file;
                      line = i + 1;
                      rule = "guarded-by";
                      message =
                        Printf.sprintf
                          "field '%s' is guarded by '%s' but this scope shows no lock \
                           evidence (acquire/with_%s/lint: holds)"
                          field lock lock;
                    }
                    :: !findings
              done)
          scopes)
      fields;
    !findings
  end

(* {2 R3: raw primitives in functorized files} *)

let raw_tokens = [ "Stdlib.Atomic"; "Stdlib.Mutex"; "Domain.cpu_relax" ]

let prim_functorized src =
  (* Exact-line match: prose that merely *mentions* the marker (doc
     comments in intf.ml, this file) must not opt a file in. *)
  Array.exists (fun l -> String.trim l = "(* lint: prim-functorized *)") src.raw

let check_raw_prims src =
  if not (prim_functorized src) then []
  else begin
    let findings = ref [] in
    Array.iteri
      (fun i line ->
        List.iter
          (fun tok ->
            if contains line tok && not (suppressed src.raw.(i) "raw-primitive") then
              findings :=
                {
                  file = src.file;
                  line = i + 1;
                  rule = "raw-primitive";
                  message =
                    Printf.sprintf
                      "'%s' in a prim-functorized file bypasses the PRIM parameter (and the \
                       checker)"
                      tok;
                }
                :: !findings)
          raw_tokens)
      src.masked;
    !findings
  end

(* {2 R5: blocking calls under a lock} *)

(* A held region starts at a statement-position acquisition and ends at
   the first statement that *begins* with an unlock/release call — an
   unlock tucked inside a [Fun.protect ~finally:...] closure does not end
   it, so protected bodies are scanned too. *)
let lock_stmt_re = Str.regexp "^\\([A-Za-z_']+\\.\\)*\\(lock\\|acquire\\)\\b.*;$"
let unlock_stmt_re = Str.regexp "^\\([A-Za-z_']+\\.\\)*\\(unlock\\|release\\)\\b"

let blocking_tokens =
  (* [Condition.wait] is deliberately absent: waiting on a condition
     releases the mutex by construction. *)
  [
    "Unix.sleepf";
    "Thread.delay";
    "Futex.wait";
    "Eventcount.wait";
    "wait_before_extract";
    "extract_blocking";
  ]

let check_blocking_under_lock src =
  let findings = ref [] in
  List.iter
    (fun scope ->
      (* [held] carries the lock statement's indentation: a non-blank line
         dedenting below it has left the critical section — which is how a
         [Fun.protect]-shaped section (unlock inside the [~finally]
         closure, body indented deeper) is delimited textually. *)
      let held = ref None in
      for i = scope.start to scope.stop do
        let line = src.masked.(i) in
        let t = String.trim line in
        (match !held with
        | Some ind when (not (is_blank line)) && indent_of line < ind -> held := None
        | _ -> ());
        if Str.string_match unlock_stmt_re t 0 then held := None
        else if Str.string_match lock_stmt_re t 0 then held := Some (indent_of line)
        else if !held <> None then
          List.iter
            (fun tok ->
              if contains t tok && not (suppressed src.raw.(i) "blocking-under-lock") then
                findings :=
                  {
                    file = src.file;
                    line = i + 1;
                    rule = "blocking-under-lock";
                    message =
                      Printf.sprintf
                        "'%s' while holding a lock: sleepers must not own a mutex (release \
                         first, or suppress with lint: allow blocking-under-lock)"
                        tok;
                  }
                  :: !findings)
            blocking_tokens
      done)
    (scopes_of src.masked);
  !findings

(* {2 R7: unbounded spins} *)

(* The loop around a [cpu_relax] call is found by walking up the nesting
   chain (each line indented less than everything seen so far): the first
   [while]/[for] header or [let rec]/[and] binding is the loop, and a
   plain function definition on the way means there is none. The loop's
   extent is its body: up to the matching [done], or up to the next line
   at or above a recursive binding's indentation. *)
type loop = { header : int; last : int; counted : bool; rec_name : string option }

let relax_call_re = Str.regexp "cpu_relax ()"
let rec_header_re = Str.regexp "^\\(let rec\\|and\\) \\([a-z_][A-Za-z0-9_']*\\)"
let ref_counter_re = Str.regexp "\\b\\(incr\\|decr\\) \\([a-z_][A-Za-z0-9_']*\\)"

let enclosing_loop masked i =
  let n = Array.length masked in
  let rec up j min_ind =
    if j < 0 then None
    else
      let line = masked.(j) in
      let t = String.trim line in
      let ind = indent_of line in
      if is_blank line || ind >= min_ind then up (j - 1) min_ind
      else if starts_with "while " t || starts_with "for " t then begin
        let rec down k =
          if k >= n then n - 1
          else
            let l = masked.(k) in
            if is_blank l then down (k + 1)
            else if indent_of l < ind then k - 1
            else if indent_of l = ind && starts_with "done" (String.trim l) then k
            else down (k + 1)
        in
        Some { header = j; last = down (j + 1); counted = starts_with "for " t; rec_name = None }
      end
      else if Str.string_match rec_header_re t 0 then begin
        let rec down k =
          if k >= n then n - 1
          else if (not (is_blank masked.(k))) && indent_of masked.(k) <= ind then k - 1
          else down (k + 1)
        in
        Some
          {
            header = j;
            last = down (j + 1);
            counted = false;
            rec_name = Some (Str.matched_group 2 t);
          }
      end
      else if starts_with "let " t && ends_with "=" t then None
      else up (j - 1) ind
  in
  up (i - 1) (indent_of masked.(i))

(* Whether the loop is counted: a [for] loop, a [ref] counter that the
   body steps and some line of the loop compares ([while !spun < k],
   [if !n > 0]), or a recursive call that steps an argument
   ([go (n - 1)]). *)
let loop_bounded text lp =
  lp.counted
  ||
  let counters =
    let rec collect pos acc =
      match Str.search_forward ref_counter_re text pos with
      | p -> collect (p + 1) (Str.matched_group 2 text :: acc)
      | exception Not_found -> acc
    in
    collect 0 []
  in
  let compared x =
    let x = Str.quote x in
    (* [[^:]=] keeps an assignment ([n := !n + 1]) from reading as a test. *)
    matches (Str.regexp ("!" ^ x ^ " *[<>=]\\|\\([<>]\\|[^:]=\\) *!" ^ x ^ "\\b")) text
  in
  List.exists compared counters
  ||
  match lp.rec_name with
  | Some name -> matches (Str.regexp ("\\b" ^ Str.quote name ^ " (.* [-+] 1)")) text
  | None -> false

(* Escalation tokens: any of them inside the loop means the spin gives the
   core away (or grows its pause) instead of spinning forever. *)
let escalation_tokens =
  [
    "Backoff.";
    "yield";
    "sleep";
    "Thread.delay";
    "Futex.wait";
    "Eventcount.wait";
    "park";
    "Condition.wait";
  ]

let spin_allowed raw =
  (* The annotation must give a reason: a bare [allow unbounded-spin]
     does not count. *)
  matches (Str.regexp "lint: allow unbounded-spin +[^* ]") raw

let check_unbounded_spin src =
  let findings = ref [] in
  Array.iteri
    (fun i line ->
      if matches relax_call_re line
         && (not (starts_with "let " (String.trim line)))
         && not (spin_allowed src.raw.(i))
      then
        match enclosing_loop src.masked i with
        | None -> ()
        | Some lp ->
            let text = scope_text src.masked { start = lp.header; stop = lp.last } in
            let escalates = List.exists (contains text) escalation_tokens in
            if not (escalates || loop_bounded text lp) then
              findings :=
                {
                  file = src.file;
                  line = i + 1;
                  rule = "unbounded-spin";
                  message =
                    Printf.sprintf
                      "cpu_relax loop (line %d) has no bounded counter and no escalation to \
                       Backoff/yield/sleep/park; it convoys when domains outnumber cores"
                      (lp.header + 1);
                }
                :: !findings)
    src.masked;
  !findings

(* {2 Driver} *)

let lint_src src =
  let fs =
    check_raise_under_lock src
    @ check_guarded_by src
    @ check_raw_prims src
    @ check_blocking_under_lock src
    @ check_unbounded_spin src
  in
  List.sort (fun a b -> compare (a.line, a.rule) (b.line, b.rule)) fs

let lint_source ~file content = lint_src (Source.of_string ~file content)
let lint_file path = lint_src (Source.of_file path)
