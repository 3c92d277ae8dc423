/* sync_spin_yield offers the calling thread's CPU to another runnable
   thread, if the kernel has one for it. It keeps the OCaml runtime
   lock: releasing it would wake the domain's backup thread, a runnable
   thread the yield would then switch to. */

#define CAML_NAME_SPACE
#include <sched.h>
#include <caml/mlvalues.h>

value sync_spin_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}
