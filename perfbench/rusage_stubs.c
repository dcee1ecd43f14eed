/* Two system calls OCaml's Unix library does not expose: wait4(2),
   for a child's exit status and peak resident set, and the
   TCP_QUICKACK socket option. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* (exit code, or -signal when killed; ru_maxrss in KiB) */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

/* Re-arm TCP_QUICKACK: acknowledge received data at once instead of
   delaying the ACK.  The flag is not sticky, so it is set after every
   read. */
value perfbench_quickack(value vfd)
{
  int one = 1;
  setsockopt(Int_val(vfd), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  return Val_unit;
}
