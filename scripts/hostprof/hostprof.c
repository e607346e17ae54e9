/* Sampling profiler for scripts/hostprof.sh: preloaded into any command, it
 * takes a backtrace every millisecond of process CPU time (SIGPROF; Linux
 * rounds the period up to its scheduler tick) and, at exit, writes /proc/self/maps and the samples to $HOSTPROF_OUT.<pid>. The
 * program under test is not rebuilt, instrumented or told it is profiled. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <unistd.h>

enum { DEPTH = 32, SKIP = 2 /* handler, signal trampoline */, MAX_SAMPLES = 1 << 17 };
static void *samples[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static int taken;

static void on_prof(int sig) {
    (void)sig;
    int slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES)
        depth[slot] = backtrace(samples[slot], DEPTH);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *prefix = getenv("HOSTPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "hostprof", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "samples %d dropped %d\n", n, taken - n);
    for (int i = 0; i < n; i++) {
        for (int f = SKIP; f < depth[i]; f++)
            fprintf(out, "%p ", samples[i][f]);
        fputc('\n', out);
    }
    fclose(out);
}
