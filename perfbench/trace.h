/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * The benchmark opens a span around every call it makes into a layer of
 * the compiler (graph build, compile, submit, artifact load, pack, ...).
 * A span carries its name, start and end on one steady clock, the span
 * that was open when it began (its parent), the request it belongs to,
 * and an optional amount of work (instructions processed) for
 * per-instruction normalisation. Spans stay in memory and are written
 * out once, as Chrome trace-event JSON, when the run ends.
 *
 * Every span is opened and closed on the benchmark's one calling thread
 * (the library's own threads are not traced), so spans nest strictly and
 * the recorder needs no lock. When tracing is off a Span is a no-op: it
 * reads no clock, so the untraced run measures the program alone.
 */
#ifndef GCD2_PERFBENCH_TRACE_H
#define GCD2_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Record
    {
        const char *name = "";
        int64_t startNs = 0;
        int64_t endNs = 0;
        int64_t parent = -1; ///< index of the enclosing span, -1 = root
        int64_t request = -1;
        uint64_t work = 0;
    };

    /** Aggregate of every span of one name. */
    struct Total
    {
        uint64_t count = 0;
        double selfMs = 0.0; ///< duration minus time covered by children
        double wallMs = 0.0;
        uint64_t work = 0;
    };

    explicit Tracer(bool enabled)
        : enabled_(enabled), origin_(std::chrono::steady_clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** Per-name totals over every closed span. */
    std::map<std::string, Total>
    totals() const
    {
        // Spans nest strictly, so a parent's children are disjoint and
        // its self time is its duration minus theirs.
        std::vector<int64_t> childNs(records_.size(), 0);
        for (const Record &r : records_)
            if (r.parent >= 0)
                childNs[static_cast<size_t>(r.parent)] += r.endNs - r.startNs;
        std::map<std::string, Total> out;
        for (size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            Total &t = out[r.name];
            ++t.count;
            t.wallMs += static_cast<double>(r.endNs - r.startNs) * 1e-6;
            t.selfMs +=
                static_cast<double>(r.endNs - r.startNs - childNs[i]) * 1e-6;
            t.work += r.work;
        }
        return out;
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void
    write(std::ostream &out) const
    {
        out << "{\"traceEvents\":[\n";
        for (size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << r.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << static_cast<double>(r.startNs) * 1e-3
                << ",\"dur\":"
                << static_cast<double>(r.endNs - r.startNs) * 1e-3
                << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
                << ",\"request\":" << r.request << ",\"work\":" << r.work
                << "}}";
        }
        out << "\n]}\n";
    }

    /** RAII span, a child of the innermost span open when it begins. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name, int64_t request = -1)
            : tracer_(tracer.enabled_ ? &tracer : nullptr)
        {
            if (tracer_ == nullptr)
                return;
            Record r;
            r.name = name;
            r.request = request;
            r.parent = tracer_->open_;
            r.startNs = tracer_->now();
            index_ = static_cast<int64_t>(tracer_->records_.size());
            tracer_->records_.push_back(r);
            tracer_->open_ = index_;
        }

        ~Span()
        {
            if (tracer_ == nullptr)
                return;
            Record &r = tracer_->records_[static_cast<size_t>(index_)];
            r.endNs = tracer_->now();
            r.work = work_;
            tracer_->open_ = r.parent;
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Work units (instructions) this span processed. */
        void setWork(uint64_t work) { work_ = work; }

      private:
        Tracer *tracer_;
        int64_t index_ = -1;
        uint64_t work_ = 0;
    };

  private:
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Record> records_;
    int64_t open_ = -1; ///< index of the innermost open span, -1 = none
};

} // namespace perfbench

#endif // GCD2_PERFBENCH_TRACE_H
