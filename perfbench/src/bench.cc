#include <algorithm>
#include <cstdio>
#include <functional>

#include <sys/resource.h>

#include "bench.hh"
#include "trace/kernels/kernels.hh"
#include "trace/trace_io.hh"

namespace catchbench
{

using namespace catchsim;

namespace
{

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

double
cpuSeconds()
{
    rusage self = {}, kids = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return tvSeconds(self.ru_utime) + tvSeconds(self.ru_stime) +
           tvSeconds(kids.ru_utime) + tvSeconds(kids.ru_stime);
}

double
peakRssMb()
{
    rusage self = {}, kids = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    // Linux reports ru_maxrss in KiB; for children it is the largest
    // single waited-for child, not a sum.
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double rank = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
kernelSeed(uint64_t suite_seed, uint64_t bench_seed)
{
    if (bench_seed == 0)
        return suite_seed;
    // splitmix64 finalizer over the pair: distinct bench seeds give
    // unrelated kernel seeds, and no two kernels share one.
    uint64_t x = suite_seed ^ (bench_seed * 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

namespace
{

constexpr size_t kKiB = 1024;
constexpr size_t kMiB = 1024 * 1024;

using Maker = std::function<std::unique_ptr<Workload>(uint64_t seed)>;

/**
 * The suite entries the workloads use, with trace/suite.cc's
 * constructor arguments. Only the seed is the benchmark's; the
 * default-seed check in the traced run pins these rows to the suite
 * (a drifted row fails it).
 */
const std::vector<std::pair<std::string, Maker>> &
table()
{
    static const std::vector<std::pair<std::string, Maker>> rows = {
        {"mcf",
         [](uint64_t s) {
             return std::make_unique<McfLike>("mcf", kernelSeed(14, s),
                                              1u << 20, 1u << 15);
         }},
        {"hmmer",
         [](uint64_t s) {
             return std::make_unique<DpTableLike>(
                 "hmmer", kernelSeed(16, s), 2048u, 384 * kKiB, 65536u);
         }},
        {"omnetpp",
         [](uint64_t s) {
             return std::make_unique<EventQueueLike>(
                 "omnetpp", kernelSeed(20, s), 8192u, 3u);
         }},
        {"libquantum",
         [](uint64_t s) {
             return std::make_unique<CyclicScanLike>(
                 "libquantum", Category::Ispec, kernelSeed(18, s),
                 7680 * kKiB);
         }},
        {"milc",
         [](uint64_t s) {
             return std::make_unique<ReductionChainLike>(
                 "milc", Category::Fspec, kernelSeed(33, s), 2u << 20,
                 512 * kKiB);
         }},
        {"soplex",
         [](uint64_t s) {
             return std::make_unique<SparseMatVecLike>(
                 "soplex", kernelSeed(35, s), 8192u, 8u, 1u << 20);
         }},
        {"namd",
         [](uint64_t s) {
             return std::make_unique<ChaseLocalLike>(
                 "namd", Category::Fspec, kernelSeed(46, s), 512 * kKiB,
                 4u);
         }},
        {"povray",
         [](uint64_t s) {
             return std::make_unique<ManyPcLike>(
                 "povray", Category::Fspec, kernelSeed(36, s), 96u,
                 256 * kKiB);
         }},
        {"hplinpack",
         [](uint64_t s) {
             return std::make_unique<BlockedGemmLike>(
                 "hplinpack", Category::Hpc, kernelSeed(53, s), 64u);
         }},
        {"tpcc",
         [](uint64_t s) {
             return std::make_unique<OltpLike>("tpcc", kernelSeed(61, s),
                                               128u, 36u, 64 * kMiB, 4u);
         }},
        {"specjbb",
         [](uint64_t s) {
             return std::make_unique<JavaServerLike>(
                 "specjbb", kernelSeed(64, s), 24 * kMiB, 104u);
         }},
        {"sysmark-excel",
         [](uint64_t s) {
             return std::make_unique<FormulaDagLike>(
                 "sysmark-excel", kernelSeed(71, s), 1u << 19);
         }},
        {"facedetection",
         [](uint64_t s) {
             return std::make_unique<Window2dLike>(
                 "facedetection", Category::Client, kernelSeed(72, s),
                 4096u, 256u, 4u);
         }},
        {"gobmk",
         [](uint64_t s) {
             return std::make_unique<BranchyLike>(
                 "gobmk", kernelSeed(15, s), 1 * kMiB, 30u);
         }},
        {"hpc.stream",
         [](uint64_t s) {
             return std::make_unique<StreamTriadLike>(
                 "hpc.stream", Category::Hpc, kernelSeed(56, s), 8u << 20,
                 0u);
         }},
    };
    return rows;
}

} // namespace

std::unique_ptr<Workload>
makeSeededKernel(const std::string &name, uint64_t bench_seed)
{
    for (const auto &[n, make] : table())
        if (n == name)
            return make(bench_seed);
    return nullptr;
}

uint64_t
campaignDigest(const std::vector<CellRun> &runs)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const auto &r : runs) {
        const std::string doc =
            r.ok ? r.result.toJson() : "failed:" + r.error;
        h = fnv1a(doc.data(), doc.size(), h);
    }
    return h;
}

} // namespace catchbench
