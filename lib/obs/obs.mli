(** Zero-dependency observability: timed spans, a counter registry, and
    export sinks (Chrome-trace JSON, human-readable stats).

    Every stage of the mapping flow, every pass-engine run and every
    simulated cycle reports here. The subsystem is {e off by default}:
    with {!enable} never called, {!span} runs its thunk directly and
    counter updates reduce to one atomic load and a branch — the
    null-sink fast path whose cost E14 (EXPERIMENTS.md) bounds below 2%.

    The module is deliberately stdlib-only so every library (transform,
    mapping, sim, core) can depend on it without cycles.

    {b Domain-safety contract} (the [Fpfa_exec.Pool] batch surfaces run
    the flow on several domains at once):

    - Counters are atomic. {!incr}, {!add} and {!record_max} are
      commutative, so the totals of a parallel batch are {e identical}
      to a sequential run of the same work. {!set} is last-writer-wins
      and therefore {e not} batch-deterministic — reserve it for
      single-domain phases.
    - Spans accumulate in per-domain buffers (one per domain that ever
      records, reached through domain-local storage); recording is
      lock-free and a domain only ever touches its own buffer. Span ids
      stay globally unique, but their allocation order across domains is
      scheduling-dependent — parent links and nesting are always
      consistent {e within} a domain.
    - Drain and control entry points — {!spans}, {!counters},
      {!chrome_trace}, {!stats_report}, {!reset}, {!enable},
      {!disable}, {!set_clock} — must only be called while no parallel
      batch is in flight (the CLI enables before and drains after the
      whole run). *)

type attr = Str of string | Int of int | Float of float | Bool of bool
(** Span/event attribute values (rendered into Chrome-trace [args]). *)

(** {2 Switch and clock} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {2 GC tracking} *)

val enable_gc : unit -> unit
(** Adds [Gc.quick_stat] deltas — minor words, major words, major
    collections, always of the recording domain — to every subsequently
    recorded span as [gc.*] args (rendered in traces; aggregated
    per-stage by {!stats_report}). Top-level spans (no enclosing span in
    their domain) also fold their deltas into the global counters
    [gc.minor_words] / [gc.major_words] / [gc.major_collections]; nested
    spans don't, so the totals never double-count. Off by default: the
    two [quick_stat] calls per span are cheap but not free, and the
    E14 null-sink bound only covers the disabled path. *)

val disable_gc : unit -> unit
val gc_enabled : unit -> bool

val set_clock : (unit -> float) -> unit
(** Replaces the time source (seconds as a float). The default is
    {!Sys.time} (processor time, no extra dependencies); binaries that
    link [unix] install [Unix.gettimeofday] for wall-clock traces, tests
    install a deterministic ticking clock. The clock must be monotonic
    non-decreasing for spans to nest properly in trace viewers, and must
    itself be domain-safe when batches run in parallel
    ([Unix.gettimeofday] and [Sys.time] both are; a closure over a
    plain [ref], as the tests use, is only safe single-domain). *)

val now : unit -> float
(** The current reading of the installed clock ({!set_clock}), for
    callers that time work finer than a span — e.g. per-rule self time
    in the worklist engine, which only reads it while {!enabled}. *)

val reset : unit -> unit
(** Clears recorded spans in every domain's buffer and zeroes every
    counter (registrations are kept, as modules hold counter handles
    created at load time). Not safe while a batch is in flight. *)

(** {2 Spans} *)

val span : ?cat:string -> ?args:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] as a region nested inside the innermost
    span open {e in the calling domain}. The span is recorded even when
    [f] raises (the exception is re-raised). When disabled this is
    exactly [f ()]. [cat] groups spans in sinks (["flow"],
    ["transform"], ["pipeline"], ["sim"]). *)

val instant : ?cat:string -> ?args:(string * attr) list -> string -> unit
(** Records a zero-duration marker at the current time. *)

type finished_span = {
  sid : int;  (** globally unique (allocation order across domains is
                  scheduling-dependent) *)
  sparent : int option;  (** [sid] of the enclosing span, same domain *)
  sname : string;
  scat : string;
  sstart : float;  (** clock seconds *)
  sdur : float;  (** >= 0 *)
  sargs : (string * attr) list;
}

val spans : unit -> finished_span list
(** Completed spans, merged over every domain's buffer: within one
    domain in completion order (children before parents), buffers
    concatenated in domain order (the initial domain first). Single
    domain recording therefore sees plain completion order. Only call
    while no batch is in flight. *)

(** {2 Counters} *)

type counter

val counter : string -> counter
(** Finds or registers the counter [name]. Handles are cheap and
    idempotent; modules create them once at load time. Dotted names
    namespace by subsystem (e.g. ["pass.rewrites"], ["sim.moves"]).
    Registration is serialised internally, so lazily registering from a
    worker domain is safe. *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : counter -> int -> unit
(** Gauge-style: overwrite with the latest observation. Last-writer-wins
    under parallelism — not deterministic across a parallel batch; the
    library's own instrumentation avoids it on batch paths. *)

val record_max : counter -> int -> unit
(** Gauge-style: keep the high-water mark (atomic, commutative — safe
    and deterministic under parallel batches). *)

val value : counter -> int

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

val find_counter : string -> int option
(** Value of a counter by name, [None] if never registered. *)

(** {2 Sinks} *)

val chrome_trace : unit -> string
(** The recorded spans and final counter values as Chrome-trace JSON
    ([{"traceEvents": [...]}]) — load in [chrome://tracing] or Perfetto.
    Timestamps are rebased to the first span and scaled to microseconds;
    spans become ["ph":"X"] complete events carrying the recording
    domain's id as [tid] (a parallel batch renders as one lane per
    domain), counters ["ph":"C"]. *)

val write_chrome_trace : string -> unit

val stats_report : unit -> string
(** Human-readable report: every non-zero counter, then per-[(cat, name)]
    span aggregates (count, total time), merged over all domains. *)
