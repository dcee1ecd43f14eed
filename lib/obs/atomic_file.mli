(** Output files replaced whole or not at all.

    A file written in place and cut short (a crash, a kill, a full disk)
    is left truncated: neither the old contents nor the new.  Here the
    new contents go to [<path>.tmp.<pid>], which is then renamed over
    [path].  A rename within one directory is atomic, so a reader of
    [path] sees the old file or the new one, never a part, and a write
    that fails or is cut short leaves the old file as it was.  What a
    cut leaves behind is a stray temporary file; the next write from
    the same pid replaces it.

    A regular file is replaced, not written through: it gets the new
    file's permissions (0o666 less the umask).  A symbolic link at
    [path] stays: the file it points at is replaced, its temporary file
    next to it.  A path that is not a regular file -- a device such as
    [/dev/stdout], a FIFO, a socket -- is written through in place, as
    a rename would replace it; such a write is not atomic. *)

val write : path:string -> string -> (unit, string) result
(** Replace [path] with these contents.  [Error] carries the system's
    message; the old file, if any, is then untouched and the temporary
    file removed. *)

val write_with : path:string -> (out_channel -> unit) -> (unit, string) result
(** [write] of whatever the function writes to the channel, which is
    closed (and the file renamed) when it returns.  An exception other
    than [Sys_error] from the function propagates, after the temporary
    file is removed; the old file is untouched. *)
