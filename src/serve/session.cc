#include "serve/session.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "isa/assembler.hh"
#include "sim/digest.hh"

namespace disc::serve
{

namespace
{

constexpr std::uint32_t kParkMagic = 0x4453534e; // "DSSN"
// v2 appends the board spec text to the session spec; v1 files (no
// board) are still read everywhere a version is checked.
constexpr std::uint16_t kParkVersion = 2;
constexpr const char *kParkExt = ".dsess";

bool
parkVersionOk(std::uint16_t version)
{
    return version == 1 || version == kParkVersion;
}

/** Session ids double as file stems; keep them filesystem-safe. */
void
validateId(const std::string &id)
{
    if (id.empty() || id.size() > 64 || id[0] == '.')
        fatal("invalid session id '%s'", id.c_str());
    for (char c : id) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-' && c != '.')
            fatal("invalid session id '%s'", id.c_str());
    }
}

void
putSpec(Serializer &out, const SessionSpec &spec)
{
    out.putString(spec.id);
    out.put<TenantId>(spec.tenant);
    out.putString(spec.source);
    out.putString(spec.entry);
    out.put<std::uint32_t>(static_cast<std::uint32_t>(spec.streams.size()));
    for (const StreamStart &st : spec.streams) {
        out.put<StreamId>(st.stream);
        out.putString(st.label);
    }
    out.put<std::uint32_t>(static_cast<std::uint32_t>(spec.extmems.size()));
    for (const ExtMemSpec &e : spec.extmems) {
        out.put<Addr>(e.base);
        out.put<Addr>(e.size);
        out.put<std::uint16_t>(e.latency);
    }
    out.putString(spec.board);
}

SessionSpec
getSpec(Deserializer &in, std::uint16_t version)
{
    SessionSpec spec;
    spec.id = in.getString();
    spec.tenant = in.get<TenantId>();
    spec.source = in.getString();
    spec.entry = in.getString();
    auto n_streams = in.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n_streams; ++i) {
        StreamStart st;
        st.stream = in.get<StreamId>();
        st.label = in.getString();
        spec.streams.push_back(st);
    }
    auto n_ext = in.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n_ext; ++i) {
        ExtMemSpec e;
        e.base = in.get<Addr>();
        e.size = in.get<Addr>();
        e.latency = in.get<std::uint16_t>();
        spec.extmems.push_back(e);
    }
    if (version >= 2)
        spec.board = in.getString();
    return spec;
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open session file '%s'", path.c_str());
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return bytes;
}

void
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("cannot write session file '%s'", tmp.c_str());
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            fatal("short write to session file '%s'", tmp.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        fatal("cannot rename '%s' to '%s': %s", tmp.c_str(),
              path.c_str(), ec.message().c_str());
}

} // namespace

// --- SessionLease -----------------------------------------------------

SessionLease::SessionLease(SessionLease &&other) noexcept
    : registry_(other.registry_), session_(other.session_)
{
    other.registry_ = nullptr;
    other.session_ = nullptr;
}

SessionLease::~SessionLease()
{
    if (!session_)
        return;
    session_->m_.unlock();
    registry_->release(*session_);
}

// --- SessionRegistry --------------------------------------------------

SessionRegistry::SessionRegistry(std::string state_dir,
                                 unsigned max_resident)
    : dir_(std::move(state_dir)), maxResident_(max_resident)
{
    if (maxResident_ == 0)
        fatal("session registry needs max_resident >= 1");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create state dir '%s': %s", dir_.c_str(),
              ec.message().c_str());
}

std::string
SessionRegistry::filePath(const std::string &id) const
{
    return dir_ + "/" + id + kParkExt;
}

void
SessionRegistry::build(Session &s, bool start_streams)
{
    Program prog = assemble(s.spec_.source);
    s.machine_ = std::make_unique<Machine>();
    // One construction path with disc-run: board text plus the legacy
    // --extmem sugar lines feed the same parser/registry, so served
    // state is bit-identical to an offline run of the same spec.
    std::string board_text = s.spec_.board;
    for (std::size_t i = 0; i < s.spec_.extmems.size(); ++i) {
        const ExtMemSpec &e = s.spec_.extmems[i];
        board_text += extmemSugarLine(static_cast<unsigned>(i), e.base,
                                      e.size, e.latency);
    }
    s.board_ = buildBoard(
        parseBoardSpec(board_text, "session:" + s.spec_.id));
    s.board_.attachTo(*s.machine_);
    s.machine_->load(prog);
    s.machine_->setExecTrace(&s.trace_);
    if (start_streams) {
        PAddr entry = !s.spec_.entry.empty() &&
                              prog.hasSymbol(s.spec_.entry)
                          ? prog.symbol(s.spec_.entry)
                          : 0;
        s.machine_->startStream(0, entry);
        s.board_.startStreams(*s.machine_, prog);
        for (const StreamStart &st : s.spec_.streams)
            s.machine_->startStream(st.stream, prog.symbol(st.label));
    }
}

void
SessionRegistry::park(Session &s)
{
    if (unsigned delay = parkDelayMs_.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    Serializer out;
    out.put(kParkMagic);
    out.put(kParkVersion);
    putSpec(out, s.spec_);
    out.putBlob(s.machine_->saveState());
    s.trace_.save(out);
    writeFileAtomic(filePath(s.spec_.id), out.bytes());
    // The file is durable; only now is it safe to drop the machine.
    s.machine_.reset();
    s.board_ = Board();
    s.resident_.store(false);
    resident_.fetch_sub(1);
    evicted_.fetch_add(1);
}

void
SessionRegistry::unpark(Session &s)
{
    std::vector<std::uint8_t> bytes = readFileBytes(filePath(s.spec_.id));
    Deserializer in(bytes);
    if (in.get<std::uint32_t>() != kParkMagic)
        fatal("'%s' is not a session file",
              filePath(s.spec_.id).c_str());
    std::uint16_t version = in.get<std::uint16_t>();
    if (!parkVersionOk(version))
        fatal("session file version mismatch for '%s'",
              s.spec_.id.c_str());
    SessionSpec spec = getSpec(in, version);
    if (spec.id != s.spec_.id)
        fatal("session file '%s' holds session '%s'",
              filePath(s.spec_.id).c_str(), spec.id.c_str());
    std::vector<std::uint8_t> state = in.getBlob();
    build(s, false);
    s.machine_->restoreState(state);
    s.trace_.restore(in);
    if (!in.exhausted())
        fatal("session file '%s' has trailing bytes",
              filePath(s.spec_.id).c_str());
    s.resident_.store(true);
    resident_.fetch_add(1);
    restored_.fetch_add(1);
}

void
SessionRegistry::open(const SessionSpec &spec)
{
    validateId(spec.id);
    Session *p = nullptr;
    {
        std::lock_guard<std::mutex> g(mu_);
        auto [it, inserted] = sessions_.emplace(
            spec.id,
            std::unique_ptr<Session>(new Session(spec)));
        if (!inserted)
            fatal("session '%s' already exists", spec.id.c_str());
        p = it->second.get();
        p->pins_.fetch_add(1); // keep the evictor away while building
        p->lastUsed_.store(clock_.fetch_add(1) + 1);
    }
    try {
        std::lock_guard<std::mutex> g(p->m_);
        build(*p, true);
        p->resident_.store(true);
        resident_.fetch_add(1);
    } catch (...) {
        std::lock_guard<std::mutex> g(mu_);
        sessions_.erase(spec.id);
        throw;
    }
    p->pins_.fetch_sub(1);
    enforceResidency();
}

SessionLease
SessionRegistry::acquire(const std::string &id)
{
    Session *p = nullptr;
    {
        std::lock_guard<std::mutex> g(mu_);
        auto it = sessions_.find(id);
        if (it == sessions_.end())
            fatal("unknown session '%s'", id.c_str());
        p = it->second.get();
        p->pins_.fetch_add(1);
        p->lastUsed_.store(clock_.fetch_add(1) + 1);
    }
    p->m_.lock();
    if (!p->resident_.load()) {
        try {
            unpark(*p);
        } catch (...) {
            p->m_.unlock();
            p->pins_.fetch_sub(1);
            throw;
        }
    }
    return SessionLease(this, p);
}

void
SessionRegistry::release(Session &s)
{
    s.pins_.fetch_sub(1);
    try {
        enforceResidency();
    } catch (const FatalError &e) {
        // A failed park leaves the session resident and intact; the
        // bound is re-attempted on the next release.
        warn("session eviction failed: %s", e.what());
    }
}

void
SessionRegistry::enforceResidency()
{
    // Never block on a victim's mutex: its holder may be waiting for a
    // session this thread still holds (one thread holding two leases
    // while another evicts would deadlock). A busy victim is skipped
    // for the rest of this pass; the next release re-enforces the
    // bound.
    std::vector<Session *> busy;
    for (;;) {
        Session *victim = nullptr;
        {
            std::lock_guard<std::mutex> g(mu_);
            if (resident_.load() <= maxResident_)
                return;
            std::uint64_t best =
                std::numeric_limits<std::uint64_t>::max();
            for (auto &[id, s] : sessions_) {
                if (s->resident_.load() && s->pins_.load() == 0 &&
                    s->lastUsed_.load() < best &&
                    std::find(busy.begin(), busy.end(), s.get()) ==
                        busy.end()) {
                    best = s->lastUsed_.load();
                    victim = s.get();
                }
            }
            if (!victim)
                return; // everything over the bound is pinned or busy
            victim->pins_.fetch_add(1);
        }
        try {
            std::unique_lock<std::mutex> g(victim->m_, std::try_to_lock);
            // A racing acquire() may have pinned (and will re-restore
            // after us) — or already be using it; only park when this
            // evictor holds the sole pin.
            if (!g.owns_lock())
                busy.push_back(victim);
            else if (victim->pins_.load() == 1 && victim->resident_.load())
                park(*victim);
        } catch (...) {
            victim->pins_.fetch_sub(1);
            throw;
        }
        victim->pins_.fetch_sub(1);
    }
}

bool
SessionRegistry::evict(const std::string &id)
{
    Session *p = nullptr;
    {
        std::lock_guard<std::mutex> g(mu_);
        auto it = sessions_.find(id);
        if (it == sessions_.end())
            return false;
        p = it->second.get();
        if (!p->resident_.load() || p->pins_.load() != 0)
            return false;
        p->pins_.fetch_add(1);
    }
    bool parked = false;
    {
        std::lock_guard<std::mutex> g(p->m_);
        if (p->pins_.load() == 1 && p->resident_.load()) {
            park(*p);
            parked = true;
        }
    }
    p->pins_.fetch_sub(1);
    return parked;
}

void
SessionRegistry::close(const std::string &id)
{
    {
        std::lock_guard<std::mutex> g(mu_);
        auto it = sessions_.find(id);
        if (it == sessions_.end())
            fatal("unknown session '%s'", id.c_str());
        Session *p = it->second.get();
        if (p->pins_.load() != 0)
            fatal("session '%s' is busy", id.c_str());
        if (p->resident_.load())
            resident_.fetch_sub(1);
        sessions_.erase(it);
    }
    std::error_code ec;
    std::filesystem::remove(filePath(id), ec); // fine if absent
}

void
SessionRegistry::parkAll()
{
    std::vector<Session *> all;
    {
        std::lock_guard<std::mutex> g(mu_);
        for (auto &[id, s] : sessions_)
            all.push_back(s.get());
    }
    for (Session *s : all) {
        std::lock_guard<std::mutex> g(s->m_);
        if (!s->resident_.load())
            continue;
        if (s->pins_.load() != 0) {
            warn("session '%s' still leased at shutdown; not parked",
                 s->spec_.id.c_str());
            continue;
        }
        park(*s);
    }
}

std::string
SessionRegistry::parkPath(const std::string &id) const
{
    return filePath(id);
}

std::string
SessionRegistry::detach(const std::string &id)
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        return "";
    Session *p = it->second.get();
    // Holding mu_ means no new pin can start; an existing pin or a
    // resident machine means someone may be (about to be) using it.
    if (p->resident_.load() || p->pins_.load() != 0)
        return "";
    sessions_.erase(it);
    return filePath(id);
}

std::string
SessionRegistry::adoptFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    Deserializer in(bytes);
    if (in.get<std::uint32_t>() != kParkMagic)
        fatal("'%s' is not a session file", path.c_str());
    std::uint16_t version = in.get<std::uint16_t>();
    if (!parkVersionOk(version))
        fatal("session file version mismatch for '%s'", path.c_str());
    SessionSpec spec = getSpec(in, version);
    if (path != filePath(spec.id))
        fatal("session file '%s' is not at its home path '%s'",
              path.c_str(), filePath(spec.id).c_str());
    // Copy the key out before moving the spec: emplace argument
    // evaluation order is unspecified.
    std::string id = spec.id;
    std::lock_guard<std::mutex> g(mu_);
    auto [it, inserted] = sessions_.emplace(
        id, std::unique_ptr<Session>(new Session(std::move(spec))));
    if (!inserted)
        fatal("session '%s' already exists", id.c_str());
    it->second->lastUsed_.store(clock_.fetch_add(1) + 1);
    return it->first;
}

std::vector<std::string>
SessionRegistry::coldestIdle(std::size_t max) const
{
    std::vector<std::pair<std::uint64_t, std::string>> cand;
    {
        std::lock_guard<std::mutex> g(mu_);
        for (const auto &[id, s] : sessions_)
            if (s->pins_.load() == 0)
                cand.emplace_back(s->lastUsed_.load(), id);
    }
    std::sort(cand.begin(), cand.end());
    if (cand.size() > max)
        cand.resize(max);
    std::vector<std::string> out;
    out.reserve(cand.size());
    for (auto &[stamp, id] : cand)
        out.push_back(std::move(id));
    return out;
}

std::size_t
SessionRegistry::restoreDir()
{
    std::size_t count = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".tmp") {
            // A crash between write and rename leaves the temp file
            // behind; it was never the durable copy, so drop it.
            warn("removing stale temp file '%s'",
                 entry.path().c_str());
            std::error_code rm_ec;
            std::filesystem::remove(entry.path(), rm_ec);
            continue;
        }
        if (!entry.is_regular_file() ||
            entry.path().extension() != kParkExt)
            continue;
        std::vector<std::uint8_t> bytes =
            readFileBytes(entry.path().string());
        Deserializer in(bytes);
        std::uint32_t magic = in.get<std::uint32_t>();
        std::uint16_t version = in.get<std::uint16_t>();
        if (magic != kParkMagic || !parkVersionOk(version)) {
            warn("skipping unrecognized session file '%s'",
                 entry.path().c_str());
            continue;
        }
        SessionSpec spec = getSpec(in, version);
        std::lock_guard<std::mutex> g(mu_);
        auto [it, inserted] = sessions_.emplace(
            spec.id, std::unique_ptr<Session>(new Session(spec)));
        if (!inserted) {
            warn("session '%s' already registered; keeping the live one",
                 spec.id.c_str());
            continue;
        }
        ++count;
    }
    if (ec)
        fatal("cannot scan state dir '%s': %s", dir_.c_str(),
              ec.message().c_str());
    return count;
}

bool
SessionRegistry::has(const std::string &id) const
{
    std::lock_guard<std::mutex> g(mu_);
    return sessions_.count(id) != 0;
}

std::vector<std::string>
SessionRegistry::ids() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::string> out;
    for (const auto &[id, s] : sessions_)
        out.push_back(id);
    return out;
}

std::size_t
SessionRegistry::size() const
{
    std::lock_guard<std::mutex> g(mu_);
    return sessions_.size();
}

std::uint64_t
sessionDigest(Session &s)
{
    return runDigest(s.machine(), s.trace());
}

std::uint64_t
parkFileDigest(const std::string &path)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    Deserializer in(bytes);
    if (in.get<std::uint32_t>() != kParkMagic)
        fatal("'%s' is not a session file", path.c_str());
    std::uint16_t version = in.get<std::uint16_t>();
    if (!parkVersionOk(version))
        fatal("session file version mismatch for '%s'", path.c_str());
    (void)getSpec(in, version);
    std::vector<std::uint8_t> state = in.getBlob();
    ExecTrace trace(kSessionTraceEntries);
    trace.restore(in);
    if (!in.exhausted())
        fatal("session file '%s' has trailing bytes", path.c_str());
    // Mirrors runDigest(): restoreState(state) then saveState() is
    // byte-identical to `state`, so folding the blob directly gives
    // the digest the restored session will report.
    return fnv1a64(trace.render(), fnv1a64(state));
}

MigrationResult
migrateSession(SessionRegistry &src, SessionRegistry &dst,
               const std::string &id)
{
    MigrationResult res;
    if (&src == &dst) {
        res.error = "source and target shard are the same";
        return res;
    }

    src.evict(id); // park it if resident; racing users surface below
    std::string from = src.detach(id);
    if (from.empty()) {
        res.error = strprintf("session '%s' is busy or unknown",
                              id.c_str());
        return res;
    }

    try {
        res.digest = parkFileDigest(from);
    } catch (const FatalError &e) {
        src.adoptFile(from); // put it back; the file never moved
        res.error = e.what();
        return res;
    }

    std::string to = dst.parkPath(id);
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    if (ec) {
        src.adoptFile(from);
        res.error = strprintf("cannot move '%s' to '%s': %s",
                              from.c_str(), to.c_str(),
                              ec.message().c_str());
        return res;
    }

    // The rename was atomic: from here the session's durable home is
    // dst — a crash now is recovered by dst.restoreDir().
    try {
        dst.adoptFile(to);
    } catch (const FatalError &e) {
        res.error = e.what();
        return res;
    }

    // Land it: restore on the target and check the digest survived
    // the hop (release may park it again under dst's LRU policy).
    std::uint64_t landed;
    {
        SessionLease lease = dst.acquire(id);
        landed = sessionDigest(*lease);
    }
    if (landed != res.digest) {
        res.error = strprintf(
            "session '%s' digest mismatch after migration: "
            "%016llx pre-move vs %016llx restored",
            id.c_str(), static_cast<unsigned long long>(res.digest),
            static_cast<unsigned long long>(landed));
        return res;
    }
    res.ok = true;
    return res;
}

} // namespace disc::serve
