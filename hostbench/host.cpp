#include "host.h"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.h"

namespace hostbench {

namespace {

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec)
        + static_cast<double>(tv.tv_usec) * 1e-6;
}

/** Value of the first "key: value" line in @p path starting with key. */
std::string
procField(const char *path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "";
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    out += jrs::obs::jsonEscape(s);
    out += '"';
    return out;
}

} // namespace

Usage
usageNow()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        throw std::runtime_error("getrusage failed");
    return {seconds(ru.ru_utime), seconds(ru.ru_stime),
            static_cast<double>(ru.ru_minflt)};
}

void
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.close();
    if (!out)
        throw std::runtime_error(
            "cannot reset VmHWM through /proc/self/clear_refs");
}

double
peakRssMb()
{
    // "VmHWM:    123456 kB"
    const std::string v = procField("/proc/self/status", "VmHWM");
    if (v.empty())
        throw std::runtime_error("no VmHWM in /proc/self/status");
    return std::stod(v) / 1024.0;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::string
fingerprintJson(unsigned jobs)
{
    std::string cpu = procField("/proc/cpuinfo", "model name");
    if (cpu.empty())
        cpu = "unknown";
    std::ostringstream os;
    os << "{\"nproc\": " << hostCpus() << ", \"cpu_model\": "
       << quoted(cpu) << ", \"compiler\": "
       << quoted(HOSTBENCH_COMPILER) << ", \"build_type\": "
       << quoted(HOSTBENCH_BUILD_TYPE)
       << ", \"jobs\": " << jobs << "}";
    return os.str();
}

} // namespace hostbench
