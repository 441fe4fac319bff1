#include "trace.hh"

#include <cstdio>

namespace perfbench {

namespace {
/** Innermost open span of this thread. */
thread_local int tl_open = -1;
} // namespace

Tracer::Scope::Scope(Tracer *t, const char *name, uint64_t op) : t_(t)
{
    if (!t_)
        return;
    saved_parent_ = tl_open;
    std::lock_guard<std::mutex> lock(t_->mu_);
    index_ = int(t_->spans_.size());
    t_->spans_.push_back({name, nowNs(), 0, saved_parent_, op});
    tl_open = index_;
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    const uint64_t end = nowNs();
    std::lock_guard<std::mutex> lock(t_->mu_);
    t_->spans_[size_t(index_)].end_ns = end;
    tl_open = saved_parent_;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                     "\"end_ns\":%llu,\"parent\":%d,\"op\":%llu}\n",
                     i, s.name.c_str(), (unsigned long long)s.start_ns,
                     (unsigned long long)s.end_ns, s.parent,
                     (unsigned long long)s.op);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
