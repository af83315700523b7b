/* Monotonic clock for the runner's watchdogs, the throughput engine's
   latency timestamps and each run's metrics wall_clock. OCaml's Unix
   library only exposes gettimeofday (non-monotonic: NTP slew or a
   manual clock set can fire a wall_limit spuriously, starve it forever
   or corrupt a measured duration), so this binds
   clock_gettime(CLOCK_MONOTONIC) directly. The native entry point
   returns an unboxed double; the bytecode one boxes it. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <time.h>

double ctmed_monotonic_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

CAMLprim value ctmed_monotonic_now_byte(value unit)
{
  return caml_copy_double(ctmed_monotonic_now(unit));
}
