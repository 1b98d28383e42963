/**
 * @file
 * What the host benchmark reads about the machine and its own
 * process: CPU time and page faults, the resident high-water mark, and
 * the fingerprint that makes results from different hosts or builds
 * refuse to compare.
 */
#ifndef JRS_HOSTBENCH_HOST_H
#define JRS_HOSTBENCH_HOST_H

#include <string>

namespace hostbench {

/** Process-wide resource usage (all threads), from getrusage. */
struct Usage {
    double userS = 0;
    double sysS = 0;
    double minorFaults = 0;

    double cpuS() const { return userS + sysS; }
    Usage operator-(const Usage &o) const {
        return {userS - o.userS, sysS - o.sysS,
                minorFaults - o.minorFaults};
    }
};

/** Usage of this process so far. */
Usage usageNow();

/**
 * Reset the kernel's resident high-water mark (VmHWM) to the current
 * resident size, so peakRssMb() reports the peak of what follows and
 * not of earlier workloads in the same process. Throws when the
 * kernel refuses, since a process-wide maximum would be misreported.
 */
void resetPeakRss();

/** VmHWM of this process in MiB. */
double peakRssMb();

/** CPUs this process may run on. */
unsigned hostCpus();

/**
 * One-line JSON object naming the host and build: CPU count, CPU
 * model, compiler and version, build type, and worker threads used.
 */
std::string fingerprintJson(unsigned jobs);

} // namespace hostbench

#endif // JRS_HOSTBENCH_HOST_H
