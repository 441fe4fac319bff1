/**
 * @file
 * In-memory span recorder for the traced run. Spans are opened
 * and closed from the benchmark's own code around each call into
 * a simulator layer; nothing inside the library is instrumented.
 * The parent of a span is the innermost span still open on the
 * same thread, so concurrent client threads nest independently.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench {

/** Nanoseconds on the steady clock since an arbitrary epoch. */
inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

class Tracer
{
  public:
    /** Opens a span on construction, closes it on destruction. A
     *  null tracer makes the scope a no-op. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, uint64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int index_ = -1;
        int saved_parent_ = -1;
    };

    /** Every span recorded so far (copy, taken under the lock). */
    std::vector<Span> spans() const;

    /** Write the spans as JSON lines to @p path.
     *  @return false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
