/* Heap profiler for scripts/hostprof.sh --heap: preloaded into any command, it
 * interposes malloc, calloc, realloc, posix_memalign, aligned_alloc, memalign
 * and free, keeps each live block's size and the call stack that asked for
 * it, and counts live bytes per stack. Each time the live total passes the
 * last copy by a 64th and a page, it copies every stack's live bytes aside:
 * the last copy is the owners at the peak, read that close to it. At exit it writes
 * /proc/self/maps, VmHWM, the peak and every stack live at it to
 * $HOSTPROF_OUT.<pid>. Its own tables are mmapped, never malloced, and the
 * bytes of them it touched are written too: they are part of VmHWM. A stack
 * starts at the hook, whose frames the reader skips as a system library's.
 * The program under test is not rebuilt, instrumented or told it is
 * profiled. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

enum {
    DEPTH = 28,
    SITE_BITS = 16,
};

/* One call stack that allocated, numbered in order of first use; site 0
 * collects what a full table turns away. */
struct site {
    uint64_t hash;
    int64_t live, at_peak;
    int depth;
    void *pc[DEPTH];
};

/* One live block: 0 is an empty slot (malloc never returns NULL for a block). */
struct block {
    uintptr_t ptr;
    uint64_t size_site; /* size << SITE_BITS | site */
};

static struct site *sites;
static uint32_t *site_index; /* hash slot -> site number; 0 is empty */
static unsigned nsites = 1;
static struct block *blocks;
static uint64_t nblocks, block_cap;
static int64_t live, peak, copied; /* copied: the live total at the last copy */
static int ready, lock_word;
static __thread int inside __attribute__((tls_model("initial-exec")));

static void lock(void) {
    while (__atomic_exchange_n(&lock_word, 1, __ATOMIC_ACQUIRE))
        ;
}

static void unlock(void) { __atomic_store_n(&lock_word, 0, __ATOMIC_RELEASE); }

static void *map(size_t len) {
    void *p = mmap(NULL, len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        static const char msg[] = "heapprof: mmap of its tables failed\n";
        write(2, msg, sizeof msg - 1);
        _exit(127);
    }
    return p;
}

static uint64_t mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

static unsigned site_of(void **pc, int depth) {
    uint64_t h = depth;
    for (int i = 0; i < depth; i++)
        h = mix(h ^ (uintptr_t)pc[i]);
    unsigned mask = (1u << SITE_BITS) - 1;
    for (unsigned i = h & mask;; i = (i + 1) & mask) {
        struct site *s = &sites[site_index[i]];
        if (site_index[i] && s->hash == h && s->depth == depth &&
            !memcmp(s->pc, pc, depth * sizeof *pc))
            return site_index[i];
        if (!site_index[i]) {
            if (nsites >= (mask + 1) / 4 * 3)
                return 0;
            s = &sites[nsites];
            s->hash = h;
            s->depth = depth;
            memcpy(s->pc, pc, depth * sizeof *pc);
            return site_index[i] = nsites++;
        }
    }
}

static uint64_t slot_of(uintptr_t p) { return (mix(p) & (block_cap - 1)); }

static void put(uintptr_t p, uint64_t size_site) {
    uint64_t i = slot_of(p);
    while (blocks[i].ptr)
        i = (i + 1) & (block_cap - 1);
    blocks[i] = (struct block){p, size_site};
    nblocks++;
}

static void grow(void) {
    struct block *old = blocks;
    uint64_t old_cap = block_cap;
    block_cap = old_cap ? old_cap * 2 : 1 << 16;
    blocks = map(block_cap * sizeof *blocks);
    nblocks = 0;
    for (uint64_t i = 0; i < old_cap; i++)
        if (old[i].ptr)
            put(old[i].ptr, old[i].size_site);
    if (old)
        munmap(old, old_cap * sizeof *old);
}

/* Remove `p`'s block, shifting back the run behind it; 0 if `p` was not tracked. */
static uint64_t take(uintptr_t p) {
    if (!block_cap)
        return 0;
    uint64_t mask = block_cap - 1, i = slot_of(p);
    while (blocks[i].ptr != p) {
        if (!blocks[i].ptr)
            return 0;
        i = (i + 1) & mask;
    }
    uint64_t found = blocks[i].size_site;
    for (uint64_t j = (i + 1) & mask; blocks[j].ptr; j = (j + 1) & mask) {
        uint64_t home = slot_of(blocks[j].ptr);
        /* Move j into the hole at i unless its home lies in (i, j]. */
        if (((j - home) & mask) >= ((j - i) & mask)) {
            blocks[i] = blocks[j];
            i = j;
        }
    }
    blocks[i] = (struct block){0, 0};
    nblocks--;
    return found;
}

static void *record(void *p, size_t size) {
    if (!p || !ready || inside)
        return p;
    inside = 1;
    void *pc[DEPTH];
    int n = backtrace(pc, DEPTH);
    lock();
    unsigned s = site_of(pc, n);
    if (2 * (nblocks + 1) > block_cap)
        grow();
    put((uintptr_t)p, (uint64_t)size << SITE_BITS | s);
    sites[s].live += size;
    live += size;
    if (live > peak)
        peak = live;
    if (live >= copied + copied / 64 + 4096) {
        for (unsigned i = 0; i < nsites; i++)
            sites[i].at_peak = sites[i].live;
        copied = live;
    }
    unlock();
    inside = 0;
    return p;
}

static void forget(void *p) {
    if (!p || !ready)
        return;
    lock();
    uint64_t size_site = take((uintptr_t)p);
    if (size_site) {
        int64_t size = size_site >> SITE_BITS;
        sites[size_site & ((1u << SITE_BITS) - 1)].live -= size;
        live -= size;
    }
    unlock();
}

void *malloc(size_t n) { return record(__libc_malloc(n), n); }

void *calloc(size_t n, size_t m) { return record(__libc_calloc(n, m), n * m); }

void *realloc(void *p, size_t n) {
    void *q = __libc_realloc(p, n);
    if (q || !n)
        forget(p);
    return record(q, n);
}

void *memalign(size_t align, size_t n) { return record(__libc_memalign(align, n), n); }

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    if (align < sizeof(void *) || (align & (align - 1)))
        return EINVAL;
    void *p = memalign(align, n);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

void free(void *p) {
    forget(p);
    __libc_free(p);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    inside = 1;
    backtrace(warm, 4); /* loads the unwinder now, untracked */
    inside = 0;
    sites = map(sizeof *sites << SITE_BITS);
    site_index = map(sizeof *site_index << SITE_BITS);
    grow();
    ready = 1;
}

__attribute__((destructor)) static void stop(void) {
    ready = 0;
    const char *prefix = getenv("HOSTPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "heapprof", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    FILE *status = fopen("/proc/self/status", "r");
    if (!out || !maps || !status)
        return;
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    char line[256];
    long hwm_kib = -1;
    while (fgets(line, sizeof line, status))
        if (sscanf(line, "VmHWM: %ld", &hwm_kib) == 1)
            break;
    size_t tables = nsites * sizeof *sites + (sizeof *site_index << SITE_BITS) +
                    block_cap * sizeof *blocks;
    fprintf(out, "heap peak %lld copied %lld hwm_kib %ld tables %zu\n", (long long)peak,
            (long long)copied, hwm_kib, tables);
    for (unsigned i = 0; i < nsites; i++) {
        struct site *s = &sites[i];
        if (s->at_peak <= 0)
            continue;
        fprintf(out, "site %lld", (long long)s->at_peak);
        for (int f = 0; f < s->depth; f++)
            fprintf(out, " %p", s->pc[f]);
        fputc('\n', out);
    }
    fclose(out);
    fclose(maps);
    fclose(status);
}
