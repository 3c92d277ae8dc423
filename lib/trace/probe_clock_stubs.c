/* The probe clock and the monotonic clock, as noalloc C calls.

   sync_clock_monotonic reads CLOCK_MONOTONIC. sync_probe_clock_now reads
   the time stamp counter once a calibration has been published, and
   CLOCK_MONOTONIC before that or on a box where the TSC is not used.
   A TSC read becomes nanoseconds through an anchored affine map,

     ns = base_ns + ((tsc - base_tsc) * mult) >> 32,

   with a 128-bit product, so it cannot overflow in a process's
   lifetime, and a signed tick difference, so a read a few ticks before
   the anchor on another CPU stays a few ns before base_ns.

   Every TSC read is ordered: an LFENCE before RDTSC, as the kernel's
   own TSC clock does. A bare RDTSC may execute before an earlier load
   has read memory, so a thread that sees another's release store could
   stamp a time before the stamp the other took ahead of that store
   (measured on a 2-vCPU Xeon: 1,875 of 4M turn handoffs stamped up to
   218 ticks early bare, none fenced). The fence costs about 10 ns a
   read back to back, still below a CLOCK_MONOTONIC call. */

#define CAML_NAME_SPACE
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#if defined(__x86_64__)
#include <x86intrin.h>
#define HAVE_RDTSC 1
#else
#define HAVE_RDTSC 0
#endif

static inline int64_t mono_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

int64_t sync_clock_monotonic(value unit)
{
  (void)unit;
  return mono_ns();
}

value sync_clock_monotonic_byte(value unit)
{
  return caml_copy_int64(sync_clock_monotonic(unit));
}

/* Written once, by sync_probe_clock_calibrate, before [ready] is
   released; never written again. */
static int64_t base_ns, base_tsc, mult;
static int ready;

#if HAVE_RDTSC
static inline uint64_t rdtsc_ordered(void)
{
  _mm_lfence();
  return __rdtsc();
}

static inline int64_t tsc_to_ns(uint64_t tsc)
{
  __int128 d = (int64_t)(tsc - (uint64_t)base_tsc);
  return base_ns + (int64_t)((d * mult) >> 32);
}
#endif

intnat sync_probe_clock_now(value unit)
{
  (void)unit;
#if HAVE_RDTSC
  if (__atomic_load_n(&ready, __ATOMIC_ACQUIRE))
    return tsc_to_ns(rdtsc_ordered());
#endif
  return mono_ns();
}

value sync_probe_clock_now_byte(value unit)
{
  return Val_long(sync_probe_clock_now(unit));
}

value sync_probe_clock_has_tsc(value unit)
{
  (void)unit;
  return Val_bool(HAVE_RDTSC);
}

#if HAVE_RDTSC
/* One anchor: the tightest of 5 mono-tsc-mono triples, the TSC read
   paired with the midpoint of its bracket. */
static void anchor(int64_t *ns, uint64_t *tsc)
{
  int64_t best = INT64_MAX;
  for (int i = 0; i < 5; i++) {
    int64_t m0 = mono_ns();
    uint64_t t = rdtsc_ordered();
    int64_t m1 = mono_ns();
    if (m1 - m0 < best) {
      best = m1 - m0;
      *ns = m0 + (m1 - m0) / 2;
      *tsc = t;
    }
  }
}

static int64_t start_ns;
static uint64_t start_tsc;
#endif

/* Calibration in two halves around a sleep taken in OCaml, so the
   window blocks no other domain: [begin] takes the first anchor,
   [finish] the second, derives [mult] and publishes. [finish] returns
   the window in ns; 0, publishing nothing, while the window is shorter
   than [min_window] ns (the caller sleeps again and retries); and -1,
   publishing nothing, without a TSC or when it did not advance. */
value sync_probe_clock_calibrate_begin(value unit)
{
  (void)unit;
#if HAVE_RDTSC
  anchor(&start_ns, &start_tsc);
#endif
  return Val_unit;
}

value sync_probe_clock_calibrate_finish(value min_window)
{
#if HAVE_RDTSC
  int64_t end_ns;
  uint64_t end_tsc;
  anchor(&end_ns, &end_tsc);
  int64_t window = end_ns - start_ns;
  if (end_tsc <= start_tsc)
    return Val_long(-1);
  if (window < Long_val(min_window))
    return Val_long(0);
  unsigned __int128 scaled = (unsigned __int128)window << 32;
  base_ns = end_ns;
  base_tsc = (int64_t)end_tsc;
  mult = (int64_t)(scaled / (end_tsc - start_tsc));
  __atomic_store_n(&ready, 1, __ATOMIC_RELEASE);
  return Val_long(window);
#else
  (void)min_window;
  return Val_long(-1);
#endif
}
