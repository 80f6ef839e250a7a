(** Uniform text output for the experiment harness. *)

val section : string -> unit
(** Prints a banner heading (and names the CSV file for subsequent
    tables when a CSV directory is set). *)

val set_csv_dir : string option -> unit
(** When set, every {!table} is additionally written as a CSV file named
    after the current section, for plotting. The directory is created if
    missing. *)

val subsection : string -> unit
val kv : string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [kv label fmt …] prints an aligned "label: value" line. *)

val table : header:string list -> string list list -> unit
(** Column-aligned table with a separator under the header. *)

val note : ('a, Format.formatter, unit, unit) format4 -> 'a
(** An indented free-form remark (e.g. paper reference values). *)

val wall_kv : string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** {!kv} for a host wall-clock value: printed the same way, but left out
    of {!digest_of}, which must repeat from run to run. *)

val digest_of : (unit -> unit) -> string
(** [digest_of f] runs [f] and returns the hex MD5 of the text this
    domain printed through this module meanwhile — every line except
    {!wall_kv}'s. The simulated results are deterministic, so the digest
    pins an experiment's output: the bench snapshot records it as
    [result_digest]. *)

val fseconds : float -> string
(** Seconds with adaptive precision ("2.26 s", "105 ms"). *)

val fbps : float -> string
(** Bits per second with unit ("37.2 Gbps", "64 Mbps"). *)
