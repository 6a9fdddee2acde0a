(** Live ops surface: pull-based, in-process exposition of the {!Metrics} /
    {!Work} registry over localhost HTTP/1.0 (stdlib [Unix] only).

    Every other layer of the observability stack is post-hoc — reports,
    traces and ledgers exist only after the process exits. [Expose] serves
    the {e live} registry so an operator can attach to a long broadcast or
    expansion run without killing it. It serves one page:

    - [GET /metrics] — Prometheus text exposition (version 0.0.4):
      registry counters and gauges, histogram/timer quantile summaries,
      a labeled [wx_build_info] gauge, [wx_uptime_seconds] and the
      [wx_expose_scrapes] counter. A query string is ignored. Work rates
      are left to the scraper, which derives them from the monotone
      [wx_work_*] counters.

    Any other path is a 404, a method other than [GET] a 405, and a
    request line that does not parse a 400.

    The server runs on its own dedicated domain, so scrapes never block
    pool workers or the main computation; {!Metrics.snapshot} is hardened
    to merge DLS histogram shards while the pool is hot (see the
    concurrent-read contract in {!Metrics}). Serving reads the registry
    through atomic loads only — exposition never perturbs computed values,
    witnesses, or the deterministic minor-word counts the bench alloc gate
    compares (server-side allocation happens on the exposition domain,
    which never credits {!Memgc}'s foreign accumulator). *)

type t

val start : ?host:string -> port:int -> unit -> (t, string) result
(** Bind [host] (default ["127.0.0.1"]) : [port] ([0] picks an ephemeral
    port — see {!port}), spawn the server domain, and start serving.
    [Error msg] on bind/listen failure (port in use, privileged port, no
    such interface) — the caller decides whether that is fatal; [wx]
    prints a warning and keeps computing. Does not enable the registry:
    callers that want live numbers should also call {!Metrics.enable}. *)

val port : t -> int
(** The actually-bound port (meaningful when [start] was given port 0). *)

val stop : t -> unit
(** Wake the server domain, join it, and close the listening socket.
    Idempotent — safe to call both from the normal shutdown path and from
    an [at_exit] hook on the signal-exit path. *)

val uptime_s : t -> float
(** Seconds since [start] returned this server. *)

val prometheus_page : uptime_s:float -> unit -> string
(** The [/metrics] page for the current registry, exported so tests can
    check well-formedness without a socket. *)

val request_path : string -> (string, [ `Bad_request | `Method_not_allowed ]) result
(** Decode the request line of a raw request: the first line, ended by CR
    or LF, must read ["GET /path"] with an optional version. Returns the
    path with any [?query] dropped. A non-[GET] method token (upper-case
    letters) is [`Method_not_allowed]; anything else is [`Bad_request].
    Never raises. *)
